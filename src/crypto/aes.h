// AES block cipher (FIPS-197), from scratch: AES-128 and AES-256.
//
// Zerber stores posting elements encrypted under group keys on the untrusted
// index server; this is the cipher behind crypto/ctr.h. Only block
// *encryption* is implemented because CTR mode never decrypts blocks.
// Validated against the FIPS-197 Appendix C known-answer vectors.
//
// EncryptBlock has two routines (crypto/internal.h): AES-NI rounds, and a
// portable one for CPUs and architectures without them. CPUID picks one
// once per process; nothing else does. Both produce the same bytes. The
// AES-NI path runs in constant time. The portable fallback indexes a
// 256-byte S-box table, so its timing depends on key and data: it is meant
// for correctness and reproducibility of the paper's system, not as a
// constant-time production cipher.

#ifndef ZERBERR_CRYPTO_AES_H_
#define ZERBERR_CRYPTO_AES_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace zr::crypto {

/// AES block size in bytes.
constexpr size_t kAesBlockSize = 16;

/// One 16-byte AES block.
using AesBlock = std::array<uint8_t, kAesBlockSize>;

/// AES encryption context with an expanded key schedule.
class Aes {
 public:
  /// Creates a context from a 16-byte (AES-128) or 32-byte (AES-256) key.
  /// Any other key length is an InvalidArgument error.
  static StatusOr<Aes> Create(std::string_view key);

  /// Encrypts one 16-byte block in place.
  void EncryptBlock(AesBlock* block) const;

  /// Number of rounds (10 for AES-128, 14 for AES-256).
  int rounds() const { return rounds_; }

  /// The expanded key: rounds() + 1 round keys of 16 bytes each, in state
  /// order. Both block routines read this one schedule.
  const uint8_t* round_keys() const { return round_keys_.data(); }

 private:
  Aes() = default;
  void ExpandKey(const uint8_t* key, size_t key_len);

  // Max schedule: AES-256 needs 15 round keys of 16 bytes.
  std::array<uint8_t, 15 * kAesBlockSize> round_keys_{};
  int rounds_ = 0;
};

}  // namespace zr::crypto

#endif  // ZERBERR_CRYPTO_AES_H_
