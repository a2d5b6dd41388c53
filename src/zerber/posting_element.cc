#include "zerber/posting_element.h"

#include <utility>

#include "crypto/ctr.h"

namespace zr::codec {

Status Field<zerber::SealedBytes>::Get(std::string_view* in,
                                       zerber::SealedBytes* x) {
  std::string_view bytes;
  ZR_RETURN_IF_ERROR(GetLengthPrefixedCursor(in, &bytes));
  *x = zerber::SealedBytes::Adopt(bytes);
  return Status::OK();
}

}  // namespace zr::codec

namespace zr::zerber {

namespace {

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
  return codec::FieldsSize(*this);
}

size_t EncryptedPostingElement::ServedWireSize() const {
  return WireSize() - codec::Field<double>::Size(trs);
}

size_t ServedElement::WireSize() const { return codec::FieldsSize(*this); }

ServedElement ServeElement(EncryptedPostingElement element) {
  return ServedElement{element.group, element.handle,
                       std::move(element.sealed)};
}

std::string SerializePayload(const PostingPayload& payload) {
  return codec::Encode(payload);
}

StatusOr<PostingPayload> ParsePayload(std::string_view data) {
  return codec::Decode<PostingPayload>(data);
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

}  // namespace zr::zerber
