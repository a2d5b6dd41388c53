#include "zerber/posting_element.h"

#include "crypto/ctr.h"
#include "util/coding.h"

namespace zr::zerber {

size_t EncryptedPostingElement::WireSize() const {
  return static_cast<size_t>(VarintLength32(group)) +
         static_cast<size_t>(VarintLength64(handle)) + 8 /* trs */ +
         static_cast<size_t>(VarintLength64(sealed.size())) + sealed.size();
}

std::string SerializePayload(const PostingPayload& payload) {
  std::string out;
  PutVarint32(&out, payload.term);
  PutVarint32(&out, payload.doc);
  PutDouble(&out, payload.score);
  return out;
}

StatusOr<PostingPayload> ParsePayload(std::string_view data) {
  ByteReader reader(data);
  PostingPayload p;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&p.term));
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&p.doc));
  ZR_RETURN_IF_ERROR(reader.GetDouble(&p.score));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return p;
}

StatusOr<EncryptedPostingElement> SealPostingElement(
    const PostingPayload& payload, crypto::GroupId group, double trs,
    crypto::KeyStore* keys) {
  ZR_ASSIGN_OR_RETURN(const crypto::SealingKey* key,
                      keys->SealingKeyOf(group));
  EncryptedPostingElement element;
  element.group = group;
  element.trs = trs;
  element.sealed = SealedBytes::Adopt(
      crypto::Seal(*key, keys->NextNonce(), SerializePayload(payload)));
  return element;
}

StatusOr<PostingPayload> OpenPostingElement(
    const EncryptedPostingElement& element, const crypto::KeyStore& keys) {
  auto key = keys.SealingKeyOf(element.group);
  if (!key.ok()) {
    return Status::PermissionDenied("no keys for group " +
                                    std::to_string(element.group));
  }
  ZR_ASSIGN_OR_RETURN(std::string plain, crypto::Open(**key, element.sealed));
  return ParsePayload(plain);
}

void AppendElement(std::string* dst, const EncryptedPostingElement& element) {
  PutVarint32(dst, element.group);
  PutVarint64(dst, element.handle);
  PutDouble(dst, element.trs);
  PutLengthPrefixed(dst, element.sealed);
}

StatusOr<EncryptedPostingElement> ParseElement(std::string_view* data) {
  ByteReader reader(*data);
  EncryptedPostingElement element;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&element.group));
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&element.handle));
  ZR_RETURN_IF_ERROR(reader.GetDouble(&element.trs));
  std::string_view sealed;
  ZR_RETURN_IF_ERROR(reader.GetLengthPrefixed(&sealed));
  element.sealed = SealedBytes::Adopt(sealed);
  *data = data->substr(data->size() - reader.remaining());
  return element;
}

}  // namespace zr::zerber
