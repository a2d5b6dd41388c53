// Block routines behind crypto::Aes and crypto::Sha256, one portable and one
// hardware routine each.
//
// Aes::EncryptBlock and Sha256's compression call the hardware routine when
// the CPU has the instructions (checked once per process with CPUID) and
// the portable one otherwise. Library code goes through Aes and Sha256;
// this header exists so tests can hold both routines to the same answers
// and benches can time both.

#ifndef ZERBERR_CRYPTO_INTERNAL_H_
#define ZERBERR_CRYPTO_INTERNAL_H_

#include <cstdint>

namespace zr::crypto::internal {

/// Encrypts the 16-byte `block` in place. `round_keys` holds rounds + 1
/// round keys of 16 bytes each, in state order (Aes::round_keys()).
using AesBlockRoutine = void (*)(const uint8_t* round_keys, int rounds,
                                 uint8_t* block);

/// Compresses one 64-byte `block` into the eight-word SHA-256 `state`.
using Sha256BlockRoutine = void (*)(uint32_t* state, const uint8_t* block);

/// FIPS-197 in plain C++: runs on any CPU and is the tests' reference. It
/// indexes an S-box table, so its timing depends on the data.
void AesEncryptBlockPortable(const uint8_t* round_keys, int rounds,
                             uint8_t* block);

/// FIPS 180-4 in plain C++: runs on any CPU and is the tests' reference.
void Sha256ProcessBlockPortable(uint32_t* state, const uint8_t* block);

/// The AES-NI routine, or nullptr when this is not an x86 build or the CPU
/// lacks AES-NI.
AesBlockRoutine AesNiRoutine();

/// The SHA-NI routine, or nullptr when this is not an x86 build or the CPU
/// lacks SHA-NI, SSSE3 or SSE4.1.
Sha256BlockRoutine ShaNiRoutine();

}  // namespace zr::crypto::internal

#endif  // ZERBERR_CRYPTO_INTERNAL_H_
