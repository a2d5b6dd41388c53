#include "crypto/keys.h"

namespace zr::crypto {

KeyStore::KeyStore(std::string_view seed)
    : drbg_(seed),
      directory_(drbg_.GenerateBytes(32)),
      nonce_salt_(drbg_.NextU64()) {}

Status KeyStore::CreateGroup(GroupId group) {
  if (groups_.count(group) > 0) {
    return Status::AlreadyExists("group " + std::to_string(group) +
                                 " already registered");
  }
  const std::string master = drbg_.GenerateBytes(32);
  Sha256Digest enc = DeriveKey(master, "zerber-enc", "");
  Sha256Digest mac = DeriveKey(master, "zerber-mac", "");
  GroupKeys keys;
  keys.enc_key.assign(reinterpret_cast<const char*>(enc.data()), 16);
  keys.mac_key.assign(reinterpret_cast<const char*>(mac.data()), 32);
  ZR_ASSIGN_OR_RETURN(SealingKey sealing,
                      SealingKey::Create(keys.enc_key, keys.mac_key));
  groups_.emplace(group, Group{std::move(keys), sealing});
  return Status::OK();
}

bool KeyStore::HasGroup(GroupId group) const {
  return groups_.count(group) > 0;
}

StatusOr<GroupKeys> KeyStore::GetGroupKeys(GroupId group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return Status::NotFound("no keys for group " + std::to_string(group));
  }
  return it->second.keys;
}

StatusOr<const SealingKey*> KeyStore::SealingKeyOf(GroupId group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return Status::NotFound("no keys for group " + std::to_string(group));
  }
  return &it->second.sealing;
}

uint64_t KeyStore::TermPseudonym(std::string_view term) const {
  return directory_.MacTrunc64(term);
}

double KeyStore::DeterministicUnit(std::string_view term,
                                   uint64_t context) const {
  std::string message(term);
  message.push_back('\0');
  for (int i = 0; i < 8; ++i) {
    message.push_back(static_cast<char>(context >> (56 - 8 * i)));
  }
  uint64_t v = directory_.MacTrunc64(message);
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

uint64_t KeyStore::NextNonce() {
  return nonce_salt_ ^ nonce_counter_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace zr::crypto
