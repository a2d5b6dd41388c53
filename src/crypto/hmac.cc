#include "crypto/hmac.h"

#include <cstring>

namespace zr::crypto {

HmacKey::HmacKey(std::string_view key) {
  uint8_t key_block[64];
  std::memset(key_block, 0, sizeof(key_block));
  if (key.size() > sizeof(key_block)) {
    Sha256Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.data(), kd.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(ipad, sizeof(ipad));
  outer_.Update(opad, sizeof(opad));
}

Sha256Digest HmacKey::Mac(std::string_view message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  Sha256Digest inner_digest = inner.Finish();

  Sha256 outer = outer_;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

uint64_t HmacKey::MacTrunc64(std::string_view message) const {
  Sha256Digest d = Mac(message);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[i];
  return v;
}

Sha256Digest HmacSha256(std::string_view key, std::string_view message) {
  return HmacKey(key).Mac(message);
}

Sha256Digest DeriveKey(std::string_view master_key, std::string_view label,
                       std::string_view context) {
  std::string info;
  info.reserve(label.size() + 1 + context.size());
  info.append(label);
  info.push_back('\0');
  info.append(context);
  return HmacSha256(master_key, info);
}

std::string DigestToKey(const Sha256Digest& digest) {
  return std::string(reinterpret_cast<const char*>(digest.data()),
                     digest.size());
}

}  // namespace zr::crypto
