// Wire messages between client and index server.
//
// Every request/response of the ZerberService API (net/service.h) has a
// defined wire format, so byte accounting (and the Section 6.6 bandwidth
// numbers) reflects real serialized sizes and corrupt input handling is
// testable. DirectTransport (net/transport.h) uses the analytic WireSizeOf*
// functions to account for the bytes without serializing; TcpTransport /
// TcpServer (net/tcp.h) move the serializations across a socket in
// length-prefixed frames.
//
// Threading: every function here is a pure function of its arguments —
// safe from any thread, no shared state. Ownership: Serialize* returns
// bytes by value; Parse* copies out of its input view, so the input
// buffer may be discarded as soon as the call returns. Parsers never
// trust input: any malformed byte sequence comes back as a Corruption
// status, never UB (asserted by the corruption tests in
// tests/net_messages_test.cc).

#ifndef ZERBERR_NET_MESSAGES_H_
#define ZERBERR_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

/// Client -> server: fetch a range of a merged posting list.
struct QueryRequest {
  uint32_t user = 0;
  uint32_t list = 0;
  uint64_t offset = 0;
  uint64_t count = 0;

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

/// Server -> client: the fetched elements, in the list's order. Each is
/// served as group tag, handle and sealed bytes; the TRS the server sorts
/// by never leaves the server.
struct QueryResponse {
  std::vector<zerber::ServedElement> elements;
  bool exhausted = false;

  /// Serialized size of this message as it crossed the wire. Transport
  /// accounting only — set by the Transport, never serialized.
  uint64_t wire_size = 0;
};

/// Client -> server: insert one sealed element.
struct InsertRequest {
  uint32_t user = 0;
  uint32_t list = 0;
  zerber::EncryptedPostingElement element;
};

/// Server -> client: acknowledges an insert with the server-assigned element
/// handle (the client needs it for later deletion).
struct InsertResponse {
  uint64_t handle = 0;

  /// Transport accounting only (see QueryResponse::wire_size).
  uint64_t wire_size = 0;

  friend bool operator==(const InsertResponse& a, const InsertResponse& b) {
    return a.handle == b.handle;
  }
};

/// One list range of a MultiFetchRequest.
struct FetchRange {
  uint32_t list = 0;
  uint64_t offset = 0;
  uint64_t count = 0;

  friend bool operator==(const FetchRange&, const FetchRange&) = default;
};

/// Client -> server: several list fetches in one round trip (the initial
/// requests of a multi-term query, Section 3.2).
struct MultiFetchRequest {
  uint32_t user = 0;
  std::vector<FetchRange> fetches;

  friend bool operator==(const MultiFetchRequest&,
                         const MultiFetchRequest&) = default;
};

/// Server -> client: one QueryResponse per requested range, in order.
struct MultiFetchResponse {
  std::vector<QueryResponse> responses;

  /// Transport accounting only (see QueryResponse::wire_size).
  uint64_t wire_size = 0;
};

/// Client -> server: delete one element by server handle.
struct DeleteRequest {
  uint32_t user = 0;
  uint32_t list = 0;
  uint64_t handle = 0;

  friend bool operator==(const DeleteRequest&, const DeleteRequest&) = default;
};

/// Server -> client: acknowledges a delete.
struct DeleteResponse {
  /// Transport accounting only (see QueryResponse::wire_size).
  uint64_t wire_size = 0;
};

/// Client -> server: liveness / identity probe. The router uses the echoed
/// token to pair responses and `server_id` to verify it reconnected to the
/// shard it thinks it did (a restarted process on a recycled port).
struct PingRequest {
  uint64_t token = 0;

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

  friend bool operator==(const PingResponse&, const PingResponse&) = default;
};

/// Client -> server: request a snapshot of the server's counters.
struct StatsRequest {
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

  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

/// Operator ACL mutation applied to one server (the router broadcasts one
/// per shard). `user` is ignored for kAddGroup.
struct AclRequest {
  enum class Op : uint8_t { kAddGroup = 1, kGrant = 2, kRevoke = 3 };

  Op op = Op::kAddGroup;
  uint32_t user = 0;
  uint32_t group = 0;

  friend bool operator==(const AclRequest&, const AclRequest&) = default;
};

/// Server -> client: acknowledges an ACL mutation.
struct AclResponse {
  friend bool operator==(const AclResponse&, const AclResponse&) = default;
};

std::string SerializeQueryRequest(const QueryRequest& request);
StatusOr<QueryRequest> ParseQueryRequest(std::string_view data);

std::string SerializeQueryResponse(const QueryResponse& response);
StatusOr<QueryResponse> ParseQueryResponse(std::string_view data);

std::string SerializeInsertRequest(const InsertRequest& request);
StatusOr<InsertRequest> ParseInsertRequest(std::string_view data);

std::string SerializeInsertResponse(const InsertResponse& response);
StatusOr<InsertResponse> ParseInsertResponse(std::string_view data);

std::string SerializeMultiFetchRequest(const MultiFetchRequest& request);
StatusOr<MultiFetchRequest> ParseMultiFetchRequest(std::string_view data);

std::string SerializeMultiFetchResponse(const MultiFetchResponse& response);
StatusOr<MultiFetchResponse> ParseMultiFetchResponse(std::string_view data);

std::string SerializeDeleteRequest(const DeleteRequest& request);
StatusOr<DeleteRequest> ParseDeleteRequest(std::string_view data);

std::string SerializeDeleteResponse(const DeleteResponse& response);
StatusOr<DeleteResponse> ParseDeleteResponse(std::string_view data);

std::string SerializePingRequest(const PingRequest& request);
StatusOr<PingRequest> ParsePingRequest(std::string_view data);

std::string SerializePingResponse(const PingResponse& response);
StatusOr<PingResponse> ParsePingResponse(std::string_view data);

std::string SerializeStatsRequest(const StatsRequest& request);
StatusOr<StatsRequest> ParseStatsRequest(std::string_view data);

std::string SerializeStatsResponse(const StatsResponse& response);
StatusOr<StatsResponse> ParseStatsResponse(std::string_view data);

std::string SerializeAclRequest(const AclRequest& request);
StatusOr<AclRequest> ParseAclRequest(std::string_view data);

std::string SerializeAclResponse(const AclResponse& response);
StatusOr<AclResponse> ParseAclResponse(std::string_view data);

// ---------------------------------------------------------------------------
// Error-status encoding: a server-side failure crosses the wire as an error
// message carrying the canonical status code + message, so remote clients
// observe the same Status an in-process caller would.
// ---------------------------------------------------------------------------

/// Serializes a non-OK status. Must not be called with an OK status.
std::string SerializeErrorResponse(const Status& error);

/// Decodes an error message back into the Status it carried (via `*decoded`).
/// Returns Corruption when `data` is not a well-formed error message or
/// encodes an unknown code; OK when decoding succeeded.
Status ParseErrorResponse(std::string_view data, Status* decoded);

/// True when `data` starts with the error-message tag (dispatch helper for
/// transports: a response wire is either an error or the typed response).
bool IsErrorResponse(std::string_view data);

// ---------------------------------------------------------------------------
// Analytic wire sizes: the exact number of bytes Serialize* would produce,
// computed without serializing. DirectTransport accounts with these;
// TcpTransport drift-checks every request against them, and
// net_messages_test pins them to the serialized sizes of every message.
// ---------------------------------------------------------------------------

size_t WireSizeOfQueryRequest(const QueryRequest& request);
size_t WireSizeOfQueryResponse(const QueryResponse& response);
size_t WireSizeOfInsertRequest(const InsertRequest& request);
size_t WireSizeOfInsertResponse(const InsertResponse& response);
size_t WireSizeOfMultiFetchRequest(const MultiFetchRequest& request);
size_t WireSizeOfMultiFetchResponse(const MultiFetchResponse& response);
size_t WireSizeOfDeleteRequest(const DeleteRequest& request);
size_t WireSizeOfDeleteResponse(const DeleteResponse& response);
size_t WireSizeOfErrorResponse(const Status& error);
size_t WireSizeOfPingRequest(const PingRequest& request);
size_t WireSizeOfPingResponse(const PingResponse& response);
size_t WireSizeOfStatsRequest(const StatsRequest& request);
size_t WireSizeOfStatsResponse(const StatsResponse& response);
size_t WireSizeOfAclRequest(const AclRequest& request);
size_t WireSizeOfAclResponse(const AclResponse& response);

}  // namespace zr::net

#endif  // ZERBERR_NET_MESSAGES_H_
