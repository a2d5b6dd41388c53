// Wire messages between client and index server.
//
// Every exchange of the ZerberService API (net/service.h), the control
// plane (ping, stats scrape, operator ACL) and the error answer is one
// message type below, and each type is defined once: its tag (kWireTag), a
// request's Response type, and Fields, which names its fields in wire
// order. The encoder (Serialize), the parser (Parse) and the analytic wire
// size (WireSize) are derived from that list through the field-list codec
// of util/codec.h, so adding a field to a message is one line in its
// Fields, and adding a message is one definition plus its entry in
// Messages; no transport changes. DirectTransport (net/transport.h)
// accounts bytes with WireSize without serializing; TcpTransport /
// TcpServer (net/tcp.h) move Serialize's bytes across a socket in
// length-prefixed frames, and the byte counts agree message for message
// (the Section 6.6 bandwidth numbers are these sizes).
//
// Encoding: the tag byte, then each field in Fields order, each as
// util/codec.h encodes its type — plus, defined here:
//   nested message       varint length, then the message with its tag
//   VersionedTail        nothing while empty, else a version byte and the
//                        length-prefixed, non-empty text (last field only)
// Posting elements are records with their own field lists
// (zerber/posting_element.h).
//
// Threading: every function here is a pure function of its arguments —
// safe from any thread, no shared state. Ownership: Serialize returns
// bytes by value; Parse copies out of its input view, so the input buffer
// may be discarded as soon as the call returns. Parsers never trust input
// (the server and the wire are the adversary's): a malformed byte sequence
// comes back as a Corruption status, never UB, and repeated fields obey
// the codec's one count rule, so allocation stays bounded by the input
// (tests/net_messages_test.cc mutates every message type's goldens).

#ifndef ZERBERR_NET_MESSAGES_H_
#define ZERBERR_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/codec.h"
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

/// A record that is a message on its own: it has a tag.
template <typename T>
concept WireMessage = codec::WireRecord<T> && requires { T::kWireTag; };

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

}  // namespace zr::net

// ---------------------------------------------------------------------------
// The field codecs of message-only field types.
// ---------------------------------------------------------------------------

namespace zr::codec {

template <>
struct Field<net::AclRequest::Op>
    : EnumField<net::AclRequest::Op, uint8_t, net::AclRequest::Op::kAddGroup,
                net::AclRequest::Op::kRevoke> {};

template <>
struct Field<StatusCode>
    : EnumField<StatusCode, uint32_t, StatusCode::kInvalidArgument,
                StatusCode::kUnavailable> {};

template <typename Text>
struct Field<net::VersionedTail<Text>> {
  static void Put(std::string* out, const net::VersionedTail<Text>& x) {
    if (x.text.empty()) return;
    out->push_back(static_cast<char>(x.version));
    PutLengthPrefixed(out, x.text);
  }
  static size_t Size(const net::VersionedTail<Text>& x) {
    return x.text.empty() ? 0 : 1 + Field<std::string>::Size(x.text);
  }
  static Status Get(std::string_view* in, net::VersionedTail<Text>* x) {
    if (in->empty()) return Status::OK();  // absent: an older encoding
    uint8_t version;
    ZR_RETURN_IF_ERROR(GetByte(in, &version));
    if (version != x->version) {
      return Status::Corruption("unknown message version");
    }
    ZR_RETURN_IF_ERROR(Field<std::string>::Get(in, &x->text));
    // An empty text is encoded by its absence, so a present one is not.
    if (x->text.empty()) return Status::Corruption("empty versioned tail");
    return Status::OK();
  }
  static size_t MinBytes() { return 0; }
};

}  // namespace zr::codec

namespace zr::net {

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
  ZR_ASSIGN_OR_RETURN(M message, codec::Decode<M>(data.substr(1)));
  if constexpr (requires { message.wire_size; }) {
    message.wire_size = data.size();
  }
  return message;
}

}  // namespace zr::net

namespace zr::codec {

/// A message nested in another: length-prefixed, with its own tag.
template <net::WireMessage T>
struct Field<T> {
  static void Put(std::string* out, const T& x) {
    PutLengthPrefixed(out, net::Serialize(x));
  }
  static size_t Size(const T& x) {
    size_t size = net::WireSize(x);
    return VarintLength64(size) + size;
  }
  static Status Get(std::string_view* in, T* x) {
    std::string_view bytes;
    ZR_RETURN_IF_ERROR(GetLengthPrefixedCursor(in, &bytes));
    ZR_ASSIGN_OR_RETURN(*x, net::Parse<T>(bytes));
    return Status::OK();
  }
  // Its length prefix and tag, then its fields.
  static size_t MinBytes() { return 2 + FieldsMinBytes<T>(); }
};

}  // namespace zr::codec

namespace zr::net {

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
