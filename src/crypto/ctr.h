// AES-CTR stream encryption (SP 800-38A) with an HMAC integrity tag.
//
// Posting elements are sealed with Encrypt-then-MAC: AES-CTR for
// confidentiality, truncated HMAC-SHA-256 for integrity. The nonce is caller
// supplied and must be unique per (key, message).

#ifndef ZERBERR_CRYPTO_CTR_H_
#define ZERBERR_CRYPTO_CTR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::crypto {

/// Bytes of HMAC tag appended by Seal (truncated HMAC-SHA-256).
constexpr size_t kSealTagSize = 8;

/// Bytes of nonce prepended by Seal.
constexpr size_t kSealNonceSize = 8;

/// The key pair of Seal/Open, prepared once: the AES key schedule of the
/// encryption key and the HMAC midstates of the MAC key, so sealing or
/// opening one message does no key set-up. Read-only after Create: one
/// instance may serve concurrent Seal and Open calls.
struct SealingKey {
  /// `enc_key` must be 16 or 32 bytes (InvalidArgument otherwise).
  /// `enc_key` and `mac_key` should be independent (see DeriveKey).
  static StatusOr<SealingKey> Create(std::string_view enc_key,
                                     std::string_view mac_key);

  Aes aes;
  HmacKey mac;
};

/// Raw CTR keystream transform: out = data XOR AES-CTR(key, nonce).
/// Symmetric: applying it twice with the same arguments restores the input.
std::string CtrTransform(const Aes& aes, uint64_t nonce, std::string_view data);

/// Authenticated encryption: nonce (8B) || ciphertext || tag (8B).
std::string Seal(const SealingKey& key, uint64_t nonce,
                 std::string_view plaintext);

/// Inverse of Seal. Returns Corruption if the tag does not verify or the
/// message is malformed.
StatusOr<std::string> Open(const SealingKey& key, std::string_view sealed);

}  // namespace zr::crypto

#endif  // ZERBERR_CRYPTO_CTR_H_
