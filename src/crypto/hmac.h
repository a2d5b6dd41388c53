// HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//
// Used to derive per-term keys, term pseudonyms (so the index server sees
// opaque posting-list identifiers instead of terms), and deterministic
// "random" TRS values for unseen terms (paper Section 5.1.1).
// Validated against the RFC 4231 test vectors.

#ifndef ZERBERR_CRYPTO_HMAC_H_
#define ZERBERR_CRYPTO_HMAC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/sha256.h"

namespace zr::crypto {

/// An HMAC-SHA-256 key prepared once: the SHA-256 midstates after the
/// inner (key ^ ipad) and outer (key ^ opad) blocks. Mac() resumes from
/// them, so a call hashes only the message and the inner digest, never the
/// key pads again. Read-only after construction: concurrent Mac() calls on
/// one instance are safe.
class HmacKey {
 public:
  /// Keys longer than the 64-byte block are hashed first (RFC 2104).
  explicit HmacKey(std::string_view key);

  /// HMAC-SHA-256(key, message).
  Sha256Digest Mac(std::string_view message) const;

  /// First 8 bytes of Mac(message) as a uint64 (big-endian). Handy for
  /// deterministic pseudo-random values bound to a secret.
  uint64_t MacTrunc64(std::string_view message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA-256(key, message).
Sha256Digest HmacSha256(std::string_view key, std::string_view message);

/// HKDF-style single-step key derivation: HMAC(key, label || 0x00 || context).
/// Distinct labels give independent keys from one master secret.
Sha256Digest DeriveKey(std::string_view master_key, std::string_view label,
                       std::string_view context);

/// Digest as a std::string of raw bytes (for use as a key).
std::string DigestToKey(const Sha256Digest& digest);

}  // namespace zr::crypto

#endif  // ZERBERR_CRYPTO_HMAC_H_
