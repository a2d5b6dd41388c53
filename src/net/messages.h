// Wire messages between client and index server.
//
// Every exchange of the ZerberService API (net/service.h), the control
// plane (ping, stats scrape, operator ACL) and the error answer is one
// message type below, and each type is defined once: its tag (kWireTag), a
// request's Response type, and Fields, which names its fields in wire
// order. The encoder (Serialize), the parser (Parse) and the analytic wire
// size (WireSize) are derived from that list through one codec per field
// type (codec::Field), so adding a field to a message is one line in its
// Fields, and adding a message is one definition plus its entry in
// Messages; no transport changes. DirectTransport (net/transport.h)
// accounts bytes with WireSize without serializing; TcpTransport /
// TcpServer (net/tcp.h) move Serialize's bytes across a socket in
// length-prefixed frames, and the byte counts agree message for message
// (the Section 6.6 bandwidth numbers are these sizes).
//
// Encoding: the tag byte, then each field in Fields order —
//   uint32_t, uint64_t   LEB128 varint
//   bool                 one byte, 0 or 1 (any nonzero byte parses as true)
//   enum                 its integer, range-checked (codec::EnumField)
//   std::string          varint length, then the bytes
//   std::vector<T>       varint count, then the elements
//   record (FetchRange)  its own fields, inline
//   nested message       varint length, then the message with its tag
//   posting elements     the leaf codecs of zerber/posting_element.h
//   VersionedTail        nothing while empty, else a version byte and the
//                        length-prefixed text (last field only)
//
// Threading: every function here is a pure function of its arguments —
// safe from any thread, no shared state. Ownership: Serialize returns
// bytes by value; Parse copies out of its input view, so the input buffer
// may be discarded as soon as the call returns. Parsers never trust input
// (the server and the wire are the adversary's): a malformed byte sequence
// comes back as a Corruption status, never UB, and every repeated field
// obeys one count rule — a count above the remaining bytes divided by the
// fewest bytes one element takes is Corruption before anything is
// reserved, so allocation stays bounded by the input
// (tests/net_messages_test.cc mutates every message type's goldens).

#ifndef ZERBERR_NET_MESSAGES_H_
#define ZERBERR_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/coding.h"
#include "util/status.h"
#include "util/statusor.h"
#include "zerber/posting_element.h"
#include "zerber/server_stats.h"

namespace zr::net {

/// First byte of every serialized message. Serialized messages are
/// self-describing: parsers reject a payload whose tag is not theirs
/// (guarding against cross-parsing), and frame-based transports
/// (net/tcp.h) dispatch a received payload on this byte alone.
enum class MessageTag : uint8_t {
  kInvalid = 0,
  kQueryRequest = 1,
  kQueryResponse = 2,
  kInsertRequest = 3,
  kInsertResponse = 4,
  kMultiFetchRequest = 5,
  kMultiFetchResponse = 6,
  kDeleteRequest = 7,
  kDeleteResponse = 8,
  kErrorResponse = 9,
  // Control plane (cluster health probes, operator ACL, stats scrape).
  kPingRequest = 10,
  kPingResponse = 11,
  kStatsRequest = 12,
  kStatsResponse = 13,
  kAclRequest = 14,
  kAclResponse = 15,
};

/// The tag of a serialized message (kInvalid for an empty payload or an
/// out-of-range first byte).
MessageTag TagOf(std::string_view message);

/// A trailing string field that a message grew later: absent from the
/// wire while empty, so older peers keep parsing messages that do not use
/// it, and otherwise `version` followed by the length-prefixed text. Only
/// valid as a message's last field. `Text` is std::string, const when
/// encoding.
template <typename Text>
struct VersionedTail {
  Text& text;
  uint8_t version;
};
// Spelled out: clang before 17 has no aggregate deduction.
template <typename Text>
VersionedTail(Text&, uint8_t) -> VersionedTail<Text>;

namespace codec {
/// A visitor that accepts any field (detects a Fields list).
struct AnyField {
  void operator()(const auto&) const {}
};
}  // namespace codec

/// A type with a Fields list: `T::Fields(t, f)` calls f(field) once per
/// field, in wire order, with the constness of `t`.
template <typename T>
concept WireRecord = requires(T& t) { T::Fields(t, codec::AnyField{}); };

/// A record that is a message on its own: it has a tag.
template <typename T>
concept WireMessage = WireRecord<T> && requires { T::kWireTag; };

/// A message a client sends; the server answers with T::Response (or an
/// ErrorResponse).
template <typename T>
concept WireRequest = WireMessage<T> && requires { typename T::Response; };

struct QueryResponse;
struct InsertResponse;
struct MultiFetchResponse;
struct DeleteResponse;
struct PingResponse;
struct StatsResponse;
struct AclResponse;

/// Client -> server: fetch a range of a merged posting list.
struct QueryRequest {
  uint32_t user = 0;
  uint32_t list = 0;
  uint64_t offset = 0;
  uint64_t count = 0;

  static constexpr MessageTag kWireTag = MessageTag::kQueryRequest;
  using Response = QueryResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.user);
    f(m.list);
    f(m.offset);
    f(m.count);
  }

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

/// Server -> client: the fetched elements, in the list's order. Each is
/// served as group tag, handle and sealed bytes; the TRS the server sorts
/// by never leaves the server.
struct QueryResponse {
  std::vector<zerber::ServedElement> elements;
  bool exhausted = false;

  /// Serialized size of this message as it crossed the wire. Transport
  /// accounting only — recorded by Parse (and by DirectTransport, see
  /// RecordWireSizes), never serialized.
  uint64_t wire_size = 0;

  static constexpr MessageTag kWireTag = MessageTag::kQueryResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.exhausted);
    f(m.elements);
  }
};

/// Client -> server: insert one sealed element.
struct InsertRequest {
  uint32_t user = 0;
  uint32_t list = 0;
  zerber::EncryptedPostingElement element;

  static constexpr MessageTag kWireTag = MessageTag::kInsertRequest;
  using Response = InsertResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.user);
    f(m.list);
    f(m.element);
  }
};

/// Server -> client: acknowledges an insert with the server-assigned element
/// handle (the client needs it for later deletion).
struct InsertResponse {
  uint64_t handle = 0;

  /// Transport accounting only (see QueryResponse::wire_size).
  uint64_t wire_size = 0;

  static constexpr MessageTag kWireTag = MessageTag::kInsertResponse;
  static void Fields(auto& m, auto&& f) { f(m.handle); }

  friend bool operator==(const InsertResponse& a, const InsertResponse& b) {
    return a.handle == b.handle;
  }
};

/// One list range of a MultiFetchRequest (a record: its fields inline).
struct FetchRange {
  uint32_t list = 0;
  uint64_t offset = 0;
  uint64_t count = 0;

  static void Fields(auto& m, auto&& f) {
    f(m.list);
    f(m.offset);
    f(m.count);
  }

  friend bool operator==(const FetchRange&, const FetchRange&) = default;
};

/// Client -> server: several list fetches in one round trip (the initial
/// requests of a multi-term query, Section 3.2).
struct MultiFetchRequest {
  uint32_t user = 0;
  std::vector<FetchRange> fetches;

  static constexpr MessageTag kWireTag = MessageTag::kMultiFetchRequest;
  using Response = MultiFetchResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.user);
    f(m.fetches);
  }

  friend bool operator==(const MultiFetchRequest&,
                         const MultiFetchRequest&) = default;
};

/// Server -> client: one QueryResponse per requested range, in order. Each
/// nested response is length-prefixed and records its own wire_size.
struct MultiFetchResponse {
  std::vector<QueryResponse> responses;

  /// Transport accounting only (see QueryResponse::wire_size).
  uint64_t wire_size = 0;

  static constexpr MessageTag kWireTag = MessageTag::kMultiFetchResponse;
  static void Fields(auto& m, auto&& f) { f(m.responses); }
};

/// Client -> server: delete one element by server handle.
struct DeleteRequest {
  uint32_t user = 0;
  uint32_t list = 0;
  uint64_t handle = 0;

  static constexpr MessageTag kWireTag = MessageTag::kDeleteRequest;
  using Response = DeleteResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.user);
    f(m.list);
    f(m.handle);
  }

  friend bool operator==(const DeleteRequest&, const DeleteRequest&) = default;
};

/// Server -> client: acknowledges a delete.
struct DeleteResponse {
  /// Transport accounting only (see QueryResponse::wire_size).
  uint64_t wire_size = 0;

  static constexpr MessageTag kWireTag = MessageTag::kDeleteResponse;
  static void Fields(auto&, auto&&) {}
};

/// Server -> client: the failure of a request, as its canonical status code
/// and message, so remote clients observe the same Status an in-process
/// caller would. Never carries kOk.
struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  static constexpr MessageTag kWireTag = MessageTag::kErrorResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.code);
    f(m.message);
  }

  /// The Status adapter: the answer for a non-OK `error`, and back.
  static ErrorResponse Of(const Status& error);
  Status status() const { return Status(code, message); }

  friend bool operator==(const ErrorResponse&, const ErrorResponse&) = default;
};

/// Client -> server: liveness / identity probe. The router uses the echoed
/// token to pair responses and `server_id` to verify it reconnected to the
/// shard it thinks it did (a restarted process on a recycled port).
struct PingRequest {
  uint64_t token = 0;

  static constexpr MessageTag kWireTag = MessageTag::kPingRequest;
  using Response = PingResponse;
  static void Fields(auto& m, auto&& f) { f(m.token); }

  friend bool operator==(const PingRequest&, const PingRequest&) = default;
};

/// Server -> client: echoes the probe token plus the server's identity.
/// `loop_id` names the event loop the serving session is pinned to (0 on a
/// single-loop server) — a client pinging the same connection repeatedly
/// must see the same loop every time, which is how tests witness session
/// pinning.
struct PingResponse {
  uint64_t token = 0;
  uint64_t server_id = 0;
  uint64_t loop_id = 0;

  static constexpr MessageTag kWireTag = MessageTag::kPingResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.token);
    f(m.server_id);
    f(m.loop_id);
  }

  friend bool operator==(const PingResponse&, const PingResponse&) = default;
};

/// Client -> server: request a snapshot of the server's counters.
struct StatsRequest {
  static constexpr MessageTag kWireTag = MessageTag::kStatsRequest;
  using Response = StatsResponse;
  static void Fields(auto&, auto&&) {}

  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

/// Server -> client: the server's ServerStats counters (one varint each,
/// in field-list order), so a router can aggregate accounting across remote
/// shards exactly like ShardedIndexService::stats() does in process.
struct StatsResponse : zerber::ServerStats {
  /// v2 extension: the server's full metrics registry in Prometheus text
  /// exposition format (the scrape plane; see src/obs/registry.h). Metric
  /// names and numbers only — never terms or plaintext (the
  /// sealed-telemetry invariant). Encoding is versioned: an empty dump
  /// serializes as the original fixed-field (v1) message, so v1 parsers
  /// keep decoding dump-free responses and the v2 parser accepts both.
  std::string registry_text;

  static constexpr MessageTag kWireTag = MessageTag::kStatsResponse;
  static void Fields(auto& m, auto&& f) {
    for (const auto& counter : zerber::ServerStats::Fields()) {
      f(m.*counter.member);
    }
    f(VersionedTail{m.registry_text, /*version=*/2});
  }

  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

/// Operator ACL mutation applied to one server (the router broadcasts one
/// per shard). `user` is ignored for kAddGroup.
struct AclRequest {
  enum class Op : uint8_t { kAddGroup = 1, kGrant = 2, kRevoke = 3 };

  Op op = Op::kAddGroup;
  uint32_t user = 0;
  uint32_t group = 0;

  static constexpr MessageTag kWireTag = MessageTag::kAclRequest;
  using Response = AclResponse;
  static void Fields(auto& m, auto&& f) {
    f(m.op);
    f(m.user);
    f(m.group);
  }

  friend bool operator==(const AclRequest&, const AclRequest&) = default;
};

/// Server -> client: acknowledges an ACL mutation.
struct AclResponse {
  static constexpr MessageTag kWireTag = MessageTag::kAclResponse;
  static void Fields(auto&, auto&&) {}

  friend bool operator==(const AclResponse&, const AclResponse&) = default;
};

/// A list of message types.
template <typename... Ms>
struct MessageList {
  /// Calls fn(std::type_identity<M>{}) for the M of the list whose tag is
  /// `tag`; calls nothing for a tag outside the list.
  template <typename Fn>
  static void ForTag(MessageTag tag, Fn&& fn) {
    ((Ms::kWireTag == tag ? fn(std::type_identity<Ms>{}) : void()), ...);
  }
};

/// Every message type, in tag order.
using Messages =
    MessageList<QueryRequest, QueryResponse, InsertRequest, InsertResponse,
                MultiFetchRequest, MultiFetchResponse, DeleteRequest,
                DeleteResponse, ErrorResponse, PingRequest, PingResponse,
                StatsRequest, StatsResponse, AclRequest, AclResponse>;

// ---------------------------------------------------------------------------
// Field codecs: how each field type crosses the wire.
// ---------------------------------------------------------------------------

namespace codec {

/// The codec of field type T. Every specialization provides
///   Put(out, x)  appends x's encoding to *out;
///   Size(x)      the number of bytes Put appends;
///   Get(in, x)   reads x from the front of *in, advancing it past the
///                bytes read (Corruption on malformed input);
///   MinBytes()   the fewest bytes any encoding of T takes, which bounds
///                the count of a repeated T.
template <typename T>
struct Field;

/// Reads one raw byte.
Status GetByte(std::string_view* in, uint8_t* byte);

template <typename T>
using FieldOf = Field<std::remove_cvref_t<T>>;

template <typename T>
void PutFields(std::string* out, const T& record) {
  T::Fields(record,
            [out](const auto& x) { FieldOf<decltype(x)>::Put(out, x); });
}

template <typename T>
size_t FieldsSize(const T& record) {
  size_t size = 0;
  T::Fields(record,
            [&](const auto& x) { size += FieldOf<decltype(x)>::Size(x); });
  return size;
}

template <typename T>
Status GetFields(std::string_view* in, T* record) {
  Status status;
  T::Fields(*record, [&](auto&& x) {
    if (!status.ok()) return;
    Status got = FieldOf<decltype(x)>::Get(in, &x);
    if (!got.ok()) status = std::move(got);
  });
  return status;
}

template <typename T>
size_t FieldsMinBytes() {
  T record{};
  size_t size = 0;
  T::Fields(record, [&](const auto& x) {
    size += FieldOf<decltype(x)>::MinBytes();
  });
  return size;
}

template <>
struct Field<uint8_t> {
  static void Put(std::string* out, uint8_t x) {
    out->push_back(static_cast<char>(x));
  }
  static size_t Size(uint8_t) { return 1; }
  static Status Get(std::string_view* in, uint8_t* x) { return GetByte(in, x); }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<bool> {
  static void Put(std::string* out, bool x) { out->push_back(x ? 1 : 0); }
  static size_t Size(bool) { return 1; }
  static Status Get(std::string_view* in, bool* x) {
    uint8_t byte;
    ZR_RETURN_IF_ERROR(GetByte(in, &byte));
    *x = byte != 0;
    return Status::OK();
  }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<uint32_t> {
  static void Put(std::string* out, uint32_t x) { PutVarint32(out, x); }
  static size_t Size(uint32_t x) { return VarintLength32(x); }
  static Status Get(std::string_view* in, uint32_t* x) {
    return GetVarint32Cursor(in, x);
  }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<uint64_t> {
  static void Put(std::string* out, uint64_t x) { PutVarint64(out, x); }
  static size_t Size(uint64_t x) { return VarintLength64(x); }
  static Status Get(std::string_view* in, uint64_t* x) {
    return GetVarint64Cursor(in, x);
  }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<std::string> {
  static void Put(std::string* out, std::string_view x) {
    PutLengthPrefixed(out, x);
  }
  static size_t Size(std::string_view x) {
    return VarintLength64(x.size()) + x.size();
  }
  static Status Get(std::string_view* in, std::string* x) {
    std::string_view bytes;
    ZR_RETURN_IF_ERROR(GetLengthPrefixedCursor(in, &bytes));
    x->assign(bytes);
    return Status::OK();
  }
  static size_t MinBytes() { return 1; }
};

/// An enum whose valid values run kFirst..kLast, carried as integer type
/// Int (uint8_t: one raw byte; uint32_t: a varint). Any other value is
/// Corruption.
template <typename E, typename Int, E kFirst, E kLast>
struct EnumField {
  static void Put(std::string* out, E x) {
    Field<Int>::Put(out, static_cast<Int>(x));
  }
  static size_t Size(E x) { return Field<Int>::Size(static_cast<Int>(x)); }
  static Status Get(std::string_view* in, E* x) {
    Int value;
    ZR_RETURN_IF_ERROR(Field<Int>::Get(in, &value));
    if (value < static_cast<Int>(kFirst) || value > static_cast<Int>(kLast)) {
      return Status::Corruption("enum value out of range");
    }
    *x = static_cast<E>(value);
    return Status::OK();
  }
  static size_t MinBytes() { return 1; }
};

template <>
struct Field<AclRequest::Op>
    : EnumField<AclRequest::Op, uint8_t, AclRequest::Op::kAddGroup,
                AclRequest::Op::kRevoke> {};

template <>
struct Field<StatusCode>
    : EnumField<StatusCode, uint32_t, StatusCode::kInvalidArgument,
                StatusCode::kUnavailable> {};

template <>
struct Field<zerber::ServedElement> {
  static void Put(std::string* out, const zerber::ServedElement& x) {
    zerber::AppendServedElement(out, x);
  }
  static size_t Size(const zerber::ServedElement& x) { return x.WireSize(); }
  static Status Get(std::string_view* in, zerber::ServedElement* x) {
    ZR_ASSIGN_OR_RETURN(*x, zerber::ParseServedElement(in));
    return Status::OK();
  }
  static size_t MinBytes() { return zerber::kMinServedElementBytes; }
};

template <>
struct Field<zerber::EncryptedPostingElement> {
  static void Put(std::string* out, const zerber::EncryptedPostingElement& x) {
    zerber::AppendElement(out, x);
  }
  static size_t Size(const zerber::EncryptedPostingElement& x) {
    return x.WireSize();
  }
  static Status Get(std::string_view* in, zerber::EncryptedPostingElement* x) {
    ZR_ASSIGN_OR_RETURN(*x, zerber::ParseElement(in));
    return Status::OK();
  }
  // A served element plus the fixed64 TRS.
  static size_t MinBytes() { return zerber::kMinServedElementBytes + 8; }
};

/// The one count rule of every repeated field.
template <typename T>
struct Field<std::vector<T>> {
  static void Put(std::string* out, const std::vector<T>& xs) {
    PutVarint64(out, xs.size());
    for (const T& x : xs) Field<T>::Put(out, x);
  }
  static size_t Size(const std::vector<T>& xs) {
    size_t size = VarintLength64(xs.size());
    for (const T& x : xs) size += Field<T>::Size(x);
    return size;
  }
  static Status Get(std::string_view* in, std::vector<T>* xs) {
    uint64_t count;
    ZR_RETURN_IF_ERROR(GetVarint64Cursor(in, &count));
    // A count the remaining bytes cannot hold is corrupt, not a reason to
    // allocate: each element takes at least MinBytes().
    if (count > in->size() / Field<T>::MinBytes()) {
      return Status::Corruption("element count exceeds message size");
    }
    xs->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      ZR_RETURN_IF_ERROR(Field<T>::Get(in, &xs->emplace_back()));
    }
    return Status::OK();
  }
  static size_t MinBytes() { return 1; }
};

template <typename Text>
struct Field<VersionedTail<Text>> {
  static void Put(std::string* out, const VersionedTail<Text>& x) {
    if (x.text.empty()) return;
    out->push_back(static_cast<char>(x.version));
    PutLengthPrefixed(out, x.text);
  }
  static size_t Size(const VersionedTail<Text>& x) {
    return x.text.empty() ? 0 : 1 + Field<std::string>::Size(x.text);
  }
  static Status Get(std::string_view* in, VersionedTail<Text>* x) {
    if (in->empty()) return Status::OK();  // absent: an older encoding
    uint8_t version;
    ZR_RETURN_IF_ERROR(GetByte(in, &version));
    if (version != x->version) {
      return Status::Corruption("unknown message version");
    }
    return Field<std::string>::Get(in, &x->text);
  }
  static size_t MinBytes() { return 0; }
};

/// A record's fields, inline.
template <WireRecord T>
struct Field<T> {
  static void Put(std::string* out, const T& x) { PutFields(out, x); }
  static size_t Size(const T& x) { return FieldsSize(x); }
  static Status Get(std::string_view* in, T* x) { return GetFields(in, x); }
  static size_t MinBytes() { return FieldsMinBytes<T>(); }
};

}  // namespace codec

// ---------------------------------------------------------------------------
// The encoder, the parser and the analytic wire size of every message.
// ---------------------------------------------------------------------------

/// The message's wire bytes: its tag, then its fields.
template <WireMessage M>
std::string Serialize(const M& message) {
  std::string out(1, static_cast<char>(M::kWireTag));
  codec::PutFields(&out, message);
  return out;
}

/// The exact number of bytes Serialize produces, computed without
/// serializing.
template <WireMessage M>
size_t WireSize(const M& message) {
  return 1 + codec::FieldsSize(message);
}

/// Parses exactly one M: Corruption on another tag, malformed fields or
/// trailing bytes. A message with a `wire_size` member records `data`'s
/// size in it.
template <WireMessage M>
StatusOr<M> Parse(std::string_view data) {
  if (TagOf(data) != M::kWireTag) {
    return Status::Corruption("unexpected message tag");
  }
  std::string_view in = data.substr(1);
  M message;
  ZR_RETURN_IF_ERROR(codec::GetFields(&in, &message));
  if (!in.empty()) return Status::Corruption("trailing bytes after message");
  if constexpr (requires { message.wire_size; }) {
    message.wire_size = data.size();
  }
  return message;
}

namespace codec {

/// A message nested in another: length-prefixed, with its own tag.
template <WireMessage T>
struct Field<T> {
  static void Put(std::string* out, const T& x) {
    PutLengthPrefixed(out, Serialize(x));
  }
  static size_t Size(const T& x) {
    size_t size = WireSize(x);
    return VarintLength64(size) + size;
  }
  static Status Get(std::string_view* in, T* x) {
    std::string_view bytes;
    ZR_RETURN_IF_ERROR(GetLengthPrefixedCursor(in, &bytes));
    ZR_ASSIGN_OR_RETURN(*x, Parse<T>(bytes));
    return Status::OK();
  }
  // Its length prefix and tag, then its fields.
  static size_t MinBytes() { return 2 + FieldsMinBytes<T>(); }
};

}  // namespace codec

/// Sets `wire_size` on `message` and on every message nested in it to its
/// encoded size, as Parse records it — computed without serializing
/// (DirectTransport's accounting).
template <typename T>
void RecordWireSizes(T&) {}

template <typename T>
void RecordWireSizes(std::vector<T>& xs) {
  for (T& x : xs) RecordWireSizes(x);
}

template <WireMessage M>
void RecordWireSizes(M& message) {
  M::Fields(message, [](auto&& field) { RecordWireSizes(field); });
  if constexpr (requires { message.wire_size; }) {
    message.wire_size = WireSize(message);
  }
}

}  // namespace zr::net

#endif  // ZERBERR_NET_MESSAGES_H_
