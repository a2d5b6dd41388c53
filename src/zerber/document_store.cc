#include "zerber/document_store.h"

#include "crypto/ctr.h"
#include "util/coding.h"

namespace zr::zerber {

size_t SealedSnippet::WireSize() const {
  return static_cast<size_t>(VarintLength32(group)) +
         static_cast<size_t>(VarintLength64(sealed.size())) + sealed.size();
}

Status DocumentStore::Put(UserId user, text::DocId doc,
                          SealedSnippet snippet) {
  ZR_RETURN_IF_ERROR(acl_->CheckAccess(user, snippet.group));
  snippets_[doc] = std::move(snippet);
  return Status::OK();
}

StatusOr<const SealedSnippet*> DocumentStore::Get(UserId user,
                                                  text::DocId doc) const {
  auto it = snippets_.find(doc);
  if (it == snippets_.end()) {
    return Status::NotFound("no snippet for document " + std::to_string(doc));
  }
  ZR_RETURN_IF_ERROR(acl_->CheckAccess(user, it->second.group));
  return &it->second;
}

Status DocumentStore::Remove(UserId user, text::DocId doc) {
  auto it = snippets_.find(doc);
  if (it == snippets_.end()) {
    return Status::NotFound("no snippet for document " + std::to_string(doc));
  }
  ZR_RETURN_IF_ERROR(acl_->CheckAccess(user, it->second.group));
  snippets_.erase(it);
  return Status::OK();
}

uint64_t DocumentStore::TotalWireSize() const {
  uint64_t total = 0;
  for (const auto& [doc, snippet] : snippets_) total += snippet.WireSize();
  return total;
}

StatusOr<SealedSnippet> SealSnippet(std::string_view snippet_text,
                                    crypto::GroupId group,
                                    crypto::KeyStore* keys) {
  ZR_ASSIGN_OR_RETURN(const crypto::SealingKey* key,
                      keys->SealingKeyOf(group));
  SealedSnippet snippet;
  snippet.group = group;
  snippet.sealed =
      SealedBytes::Adopt(crypto::Seal(*key, keys->NextNonce(), snippet_text));
  return snippet;
}

StatusOr<std::string> OpenSnippet(const SealedSnippet& snippet,
                                  const crypto::KeyStore& keys) {
  auto key = keys.SealingKeyOf(snippet.group);
  if (!key.ok()) {
    return Status::PermissionDenied("no keys for group " +
                                    std::to_string(snippet.group));
  }
  return crypto::Open(**key, snippet.sealed);
}

}  // namespace zr::zerber
