// Encrypted posting elements (paper Sections 3.1 and 5).
//
// A posting element carries (term, document, raw relevance score) sealed
// under the owning group's keys. The server additionally sees:
//   * the group tag (needed to enforce access control),
//   * the transformed relevance score TRS (Zerber+R; enables server-side
//     top-k without revealing term-specific score distributions).
// For the plain Zerber baseline the TRS field holds a random placement key
// instead, reproducing Zerber's "posting elements are placed randomly inside
// the merged posting list".
//
// The TRS is the server's sort key and never leaves the server: a query
// response serves each element as a ServedElement (group tag, handle and
// sealed bytes). Clients rank by the decrypted score and page by offset.

#ifndef ZERBERR_ZERBER_POSTING_ELEMENT_H_
#define ZERBERR_ZERBER_POSTING_ELEMENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/keys.h"
#include "text/document.h"
#include "text/vocabulary.h"
#include "util/codec.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::zerber {

/// The confidential payload of a posting element (client-side only).
struct PostingPayload {
  text::TermId term = 0;
  text::DocId doc = 0;
  /// Raw relevance score rscore(t, d) = TF/|d| (Equation 4).
  double score = 0.0;

  /// Encoding (SerializePayload): varint term, varint doc, fixed64 score
  /// bits.
  static void Fields(auto& p, auto&& f) {
    f(p.term);
    f(p.doc);
    f(p.score);
  }

  friend bool operator==(const PostingPayload&, const PostingPayload&) = default;
};

/// Ciphertext produced by crypto::Seal, as a distinct type.
///
/// The confidential boundary of the system: anything crossing to the
/// untrusted server — frame encoders in net/, WAL appends in store/ — must
/// be sealed. Keeping sealed bytes in their own type makes that boundary
/// checkable: a raw std::string (potential plaintext) cannot be assigned
/// into a sealed slot; it must come out of crypto::Seal or be explicitly
/// adopted at a deserialization boundary. tools/check_sealed.py audits both
/// the Adopt call sites and the raw flows this type cannot see.
class SealedBytes {
 public:
  SealedBytes() = default;

  /// Wraps bytes that are already ciphertext: crypto::Seal output, or bytes
  /// read back from a frame/WAL that themselves came from Seal. Every call
  /// site is a trust assertion; tools/check_sealed.py allowlists the files
  /// that may make it.
  static SealedBytes Adopt(std::string bytes) {
    return SealedBytes(std::move(bytes));
  }
  static SealedBytes Adopt(std::string_view bytes) {
    return SealedBytes(std::string(bytes));
  }

  /// Reading sealed bytes is unrestricted — they are ciphertext.
  operator std::string_view() const { return bytes_; }
  std::string_view view() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  /// Mutable byte access (tamper-injection tests flip ciphertext bits).
  char& operator[](size_t i) { return bytes_[i]; }
  char operator[](size_t i) const { return bytes_[i]; }

  friend bool operator==(const SealedBytes&, const SealedBytes&) = default;

 private:
  explicit SealedBytes(std::string bytes) : bytes_(std::move(bytes)) {}
  std::string bytes_;
};

}  // namespace zr::zerber

namespace zr::codec {

/// Sealed bytes: varint length, then the ciphertext. Get adopts the bytes
/// it reads — the deserialization boundary of SealedBytes, defined in
/// posting_element.cc.
template <>
struct Field<zerber::SealedBytes> {
  static void Put(std::string* out, const zerber::SealedBytes& x) {
    PutLengthPrefixed(out, x.view());
  }
  static size_t Size(const zerber::SealedBytes& x) {
    return Field<std::string>::Size(x.view());
  }
  static Status Get(std::string_view* in, zerber::SealedBytes* x);
  static size_t MinBytes() { return 1; }
};

}  // namespace zr::codec

namespace zr::zerber {

/// A posting element as stored on the (untrusted) index server.
struct EncryptedPostingElement {
  /// Owning collaboration group (server-visible; drives ACL filtering).
  crypto::GroupId group = 0;

  /// Server-assigned element handle (unique per server instance, 0 before
  /// insertion). Lets clients reference elements for deletion without the
  /// server learning their contents ("unlimited index update and insert
  /// operations", paper Section 7).
  uint64_t handle = 0;

  /// Transformed relevance score in [0, 1] (server-visible sort key).
  double trs = 0.0;

  /// Seal(group's SealingKey, nonce, serialized PostingPayload).
  SealedBytes sealed;

  /// Encoding (inserts, WAL records and snapshots): varint group, varint
  /// handle, fixed64 TRS bits, length-prefixed sealed bytes.
  static void Fields(auto& e, auto&& f) {
    f(e.group);
    f(e.handle);
    f(e.trs);
    f(e.sealed);
  }

  /// Encoded size in bytes.
  size_t WireSize() const;

  /// Wire size of this element as a query response serves it (no TRS).
  size_t ServedWireSize() const;
};

/// A posting element as a query response serves it to a client. It has no
/// TRS: that is the server's sort key, and it stays on the server.
struct ServedElement {
  /// Owning collaboration group (the client skips groups it has no keys
  /// for).
  crypto::GroupId group = 0;

  /// Server-assigned element handle (the client deletes by it).
  uint64_t handle = 0;

  /// The stored element's sealed bytes, unchanged.
  SealedBytes sealed;

  /// Encoding (query responses): the stored encoding without the TRS.
  static void Fields(auto& e, auto&& f) {
    f(e.group);
    f(e.handle);
    f(e.sealed);
  }

  /// Encoded size in bytes.
  size_t WireSize() const;
};

/// The served form of a stored element: drops the TRS, keeps the rest.
ServedElement ServeElement(EncryptedPostingElement element);

/// Serializes a payload (PostingPayload::Fields).
std::string SerializePayload(const PostingPayload& payload);

/// Parses a payload; Corruption on malformed input.
StatusOr<PostingPayload> ParsePayload(std::string_view data);

/// Seals `payload` into an element for `group` with the given TRS.
/// Fails if the key store has no keys for the group.
StatusOr<EncryptedPostingElement> SealPostingElement(
    const PostingPayload& payload, crypto::GroupId group, double trs,
    crypto::KeyStore* keys);

/// Opens an element. PermissionDenied if the key store lacks the group's
/// keys; Corruption if authentication fails.
StatusOr<PostingPayload> OpenPostingElement(
    const EncryptedPostingElement& element, const crypto::KeyStore& keys);
StatusOr<PostingPayload> OpenPostingElement(const ServedElement& element,
                                            const crypto::KeyStore& keys);

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_POSTING_ELEMENT_H_
