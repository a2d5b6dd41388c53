// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for HMAC (term pseudonyms, key derivation, the sealing MAC) and for
// the WAL and snapshot checksums. Validated against the NIST test vectors
// in tests/crypto_sha256_test.cc.
//
// The block compression has two routines (crypto/internal.h): SHA-NI
// (SHA256RNDS2/MSG1/MSG2), and a portable one for CPUs and architectures
// without it. CPUID picks one once per process; nothing else does. Both
// produce the same digests, so stores and baselines written on one kind of
// host read back on the other.

#ifndef ZERBERR_CRYPTO_SHA256_H_
#define ZERBERR_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace zr::crypto {

/// A 32-byte SHA-256 digest.
using Sha256Digest = std::array<uint8_t, 32>;

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.Update("abc");
///   Sha256Digest d = h.Finish();
class Sha256 {
 public:
  Sha256() { Reset(); }

  /// Resets to the initial state.
  void Reset();

  /// Absorbs more input.
  void Update(std::string_view data);
  void Update(const uint8_t* data, size_t len);

  /// Completes the hash. The object must be Reset() before reuse.
  Sha256Digest Finish();

  /// One-shot convenience.
  static Sha256Digest Hash(std::string_view data);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// Lowercase hex encoding of a digest.
std::string DigestToHex(const Sha256Digest& digest);

}  // namespace zr::crypto

#endif  // ZERBERR_CRYPTO_SHA256_H_
