#include "zerber/posting_element.h"

#include <utility>

#include "crypto/ctr.h"
#include "util/coding.h"

namespace zr::zerber {

namespace {
// Group, handle and sealed bytes: the fields both encodings carry.
size_t ServedBytes(crypto::GroupId group, uint64_t handle,
                   const SealedBytes& sealed) {
  return static_cast<size_t>(VarintLength32(group)) +
         static_cast<size_t>(VarintLength64(handle)) +
         static_cast<size_t>(VarintLength64(sealed.size())) + sealed.size();
}

StatusOr<PostingPayload> OpenSealed(crypto::GroupId group,
                                    const SealedBytes& sealed,
                                    const crypto::KeyStore& keys) {
  auto key = keys.SealingKeyOf(group);
  if (!key.ok()) {
    return Status::PermissionDenied("no keys for group " +
                                    std::to_string(group));
  }
  ZR_ASSIGN_OR_RETURN(std::string plain, crypto::Open(**key, sealed));
  return ParsePayload(plain);
}
}  // namespace

size_t EncryptedPostingElement::WireSize() const {
  return ServedBytes(group, handle, sealed) + 8 /* trs */;
}

size_t EncryptedPostingElement::ServedWireSize() const {
  return ServedBytes(group, handle, sealed);
}

size_t ServedElement::WireSize() const {
  return ServedBytes(group, handle, sealed);
}

ServedElement ServeElement(EncryptedPostingElement element) {
  return ServedElement{element.group, element.handle,
                       std::move(element.sealed)};
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
  return OpenSealed(element.group, element.sealed, keys);
}

StatusOr<PostingPayload> OpenPostingElement(const ServedElement& element,
                                            const crypto::KeyStore& keys) {
  return OpenSealed(element.group, element.sealed, keys);
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

void AppendServedElement(std::string* dst, const ServedElement& element) {
  PutVarint32(dst, element.group);
  PutVarint64(dst, element.handle);
  PutLengthPrefixed(dst, element.sealed);
}

StatusOr<ServedElement> ParseServedElement(std::string_view* data) {
  ByteReader reader(*data);
  ServedElement element;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&element.group));
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&element.handle));
  std::string_view sealed;
  ZR_RETURN_IF_ERROR(reader.GetLengthPrefixed(&sealed));
  element.sealed = SealedBytes::Adopt(sealed);
  *data = data->substr(data->size() - reader.remaining());
  return element;
}

}  // namespace zr::zerber
