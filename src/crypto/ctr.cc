#include "crypto/ctr.h"

#include <algorithm>

namespace zr::crypto {

namespace {

// XORs data[0, len) in place with the AES-CTR keystream of `nonce`.
void CtrXor(const Aes& aes, uint64_t nonce, char* data, size_t len) {
  AesBlock counter_block;
  size_t offset = 0;
  uint64_t block_index = 0;
  while (offset < len) {
    // Counter block: nonce (8B BE) || block index (8B BE).
    for (int i = 0; i < 8; ++i) {
      counter_block[i] = static_cast<uint8_t>(nonce >> (56 - 8 * i));
      counter_block[8 + i] = static_cast<uint8_t>(block_index >> (56 - 8 * i));
    }
    aes.EncryptBlock(&counter_block);
    size_t chunk = std::min(kAesBlockSize, len - offset);
    for (size_t i = 0; i < chunk; ++i) {
      data[offset + i] = static_cast<char>(
          static_cast<uint8_t>(data[offset + i]) ^ counter_block[i]);
    }
    offset += chunk;
    ++block_index;
  }
}

}  // namespace

StatusOr<SealingKey> SealingKey::Create(std::string_view enc_key,
                                        std::string_view mac_key) {
  ZR_ASSIGN_OR_RETURN(Aes aes, Aes::Create(enc_key));
  return SealingKey{aes, HmacKey(mac_key)};
}

std::string CtrTransform(const Aes& aes, uint64_t nonce,
                         std::string_view data) {
  std::string out(data);
  CtrXor(aes, nonce, out.data(), out.size());
  return out;
}

std::string Seal(const SealingKey& key, uint64_t nonce,
                 std::string_view plaintext) {
  std::string out;
  out.reserve(kSealNonceSize + plaintext.size() + kSealTagSize);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(nonce >> (56 - 8 * i)));
  }
  out.append(plaintext);
  CtrXor(key.aes, nonce, out.data() + kSealNonceSize, plaintext.size());
  Sha256Digest tag = key.mac.Mac(out);
  out.append(reinterpret_cast<const char*>(tag.data()), kSealTagSize);
  return out;
}

StatusOr<std::string> Open(const SealingKey& key, std::string_view sealed) {
  if (sealed.size() < kSealNonceSize + kSealTagSize) {
    return Status::Corruption("sealed message too short");
  }
  std::string_view body =
      sealed.substr(0, sealed.size() - kSealTagSize);
  std::string_view tag = sealed.substr(sealed.size() - kSealTagSize);

  Sha256Digest expected = key.mac.Mac(body);
  // Constant-time comparison of the truncated tag.
  uint8_t diff = 0;
  for (size_t i = 0; i < kSealTagSize; ++i) {
    diff |= static_cast<uint8_t>(tag[i]) ^ expected[i];
  }
  if (diff != 0) return Status::Corruption("authentication tag mismatch");

  uint64_t nonce = 0;
  for (size_t i = 0; i < kSealNonceSize; ++i) {
    nonce = (nonce << 8) | static_cast<uint8_t>(body[i]);
  }
  return CtrTransform(key.aes, nonce, body.substr(kSealNonceSize));
}

}  // namespace zr::crypto
