// Real TCP transport for the ZerberService protocol.
//
// TransportKind::kTcp: typed wire messages (net/messages.h) framed over a
// TCP socket, so every backend in the repo — one IndexService,
// ShardedIndexService, DurableIndexService, one DurableShard — can be
// served as an actual remote process instead of an in-process stub.
//
// Framing: every message (request or response) travels as one frame of
//
//     [u32 LE payload length][payload]
//
// where the payload is exactly the net/messages serialization (whose first
// byte is the message-type tag, so frames are self-describing and the
// server dispatches on the payload alone). Frame overhead is therefore
// exactly kFrameHeaderBytes per message in each direction, which lets
// byte accounting be cross-checked against DirectTransport's analytic
// sizes to the byte: socket_bytes == payload_bytes + kFrameHeaderBytes *
// frames.
//
// Optional frame extension (tracing): when the sender has an active
// obs::TraceContext, it sets the top bit of the length field and prepends
// an extension block to the frame body:
//
//     [u32 LE: kFrameFlagExtension | (1 + ext_len + payload_len)]
//     [u8 ext_len][ext bytes][payload]
//
// The extension block is a FrameExtension record (util/codec.h encoding):
// requests carry the trace context (kTraceContext: two fixed64 ids);
// responses to traced requests carry the spans the server collected while
// dispatching (kSpanReport), which the client records into its own process
// tracer under the originating trace id. Untraced frames never set the
// flag and are byte-identical to the plain framing above (asserted in
// net_tcp_test.cc), so the top bit costs nothing until a trace passes
// through. Extension bytes are accounted separately
// (TcpSocketStats::ext_bytes_*), keeping the payload identity exact:
// socket_bytes == payload_bytes + kFrameHeaderBytes * frames + ext_bytes.
// A torn or oversized extension (ext_len overrunning the frame) is a
// protocol error: the receiver rejects the frame and drops the
// connection, exactly like an oversized length announcement.
//
// Three pieces:
//
//  * TcpServer — N epoll event-loop threads (Linux), each loop owning its
//    own epoll instance and session table. Incoming connections are
//    spread across the loops (AcceptMode below); a session is pinned to
//    one loop for its whole life, so all of its IO, parsing, dispatch and
//    teardown happen on that one thread. Backend failures cross the wire
//    as encoded error messages.
//
//  * TcpSession — a client-side connection: blocking socket, frame
//    send/receive, and explicit pipelining support (write several request
//    frames before reading any response; TCP preserves order, the server
//    answers in order).
//
//  * TcpTransport — the client-side Transport (ZerberService stub) over a
//    TcpSession: serializes each request, drift-checks it against the
//    analytic WireSize, exchanges frames, and reconnects once on a dead
//    connection. Byte accounting (Transport::stats()) records payload
//    bytes — the same quantity DirectTransport accounts — while
//    socket_stats() records the real socket bytes including frame headers.
//
// Threading model of the server:
//
//   * Per-loop (owned by exactly one event-loop thread, never locked):
//     epoll instance, session table, per-session buffers, the
//     deferred-close batch, and the backpressure bookkeeping. Sessions
//     never migrate between loops, so none of this state is ever visible
//     to another thread.
//   * Cross-thread (annotated, checked by the -Wthread-safety build):
//     the hand-off inbox each loop exposes to the acceptor, the
//     drain barrier behind DisconnectAll, and the per-loop stats shards
//     (plain atomics, merged at scrape time).
//   * Dispatch onto the backend happens on the owning loop's thread. The
//     backends are internally thread-safe; operator ACL frames
//     additionally take a server-wide writer lock so they run with no
//     other dispatch in flight on ANY loop — the quiescence the durable
//     backend's ACL surface requires, which a single loop used to provide
//     for free by serializing everything.
//
// Start/Stop/stats/address/DisconnectAll are safe from any thread.
// TcpSession and TcpTransport are single-threaded — one instance per
// client thread (the load driver gives each worker its own transport).

#ifndef ZERBERR_NET_TCP_H_
#define ZERBERR_NET_TCP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/messages.h"
#include "net/transport.h"
#include "obs/counter_set.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::net {

/// Bytes of framing per message in each direction (the u32 length prefix).
inline constexpr size_t kFrameHeaderBytes = 4;

/// Default ceiling on a frame payload. Large enough for any response over
/// the repo's corpora; small enough that a corrupt or hostile length
/// prefix cannot make either side allocate unbounded memory.
inline constexpr size_t kDefaultMaxFramePayload = 64u << 20;

/// Top bit of the frame length field: the frame body starts with an
/// extension block (see the file comment). The length value proper is
/// therefore 31 bits, and configured payload limits clamp to
/// kFrameLengthMask.
inline constexpr uint32_t kFrameFlagExtension = 0x80000000u;
inline constexpr uint32_t kFrameLengthMask = 0x7FFFFFFFu;

/// Size of an encoded trace-context extension (type + trace id + span id).
inline constexpr size_t kTraceContextExtBytes = 17;

/// Ceiling on spans returned per response frame (it keeps the varint span
/// count one byte and the block within the u8 ext_len; 8 comfortably
/// covers one dispatch's stages).
inline constexpr size_t kMaxSpansPerFrame = 8;

/// Worst-case extension overhead per frame: the ext_len byte plus a
/// maximal (255-byte) extension block.
inline constexpr size_t kMaxFrameExtOverhead = 256;

/// An extension block: its type byte, then the fields that type carries.
struct FrameExtension {
  enum class Type : uint8_t {
    kTraceContext = 1,  ///< requests
    kSpanReport = 2,    ///< responses to traced requests
  };

  Type type = Type::kTraceContext;
  obs::TraceContext trace;             ///< kTraceContext
  std::vector<obs::SpanRecord> spans;  ///< kSpanReport

  static void Fields(auto& x, auto&& f) {
    f(x.type);
    if (x.type == Type::kTraceContext) {
      f(codec::Fixed64{x.trace.trace_id});
      f(codec::Fixed64{x.trace.span_id});
    } else {
      f(x.spans);
    }
  }
};

}  // namespace zr::net

namespace zr::codec {

template <>
struct Field<net::FrameExtension::Type>
    : EnumField<net::FrameExtension::Type, uint8_t,
                net::FrameExtension::Type::kTraceContext,
                net::FrameExtension::Type::kSpanReport> {};

template <>
struct Field<obs::Stage>
    : EnumField<obs::Stage, uint8_t, obs::Stage::kClientSeal,
                obs::Stage::kWalAppend> {};

}  // namespace zr::codec

namespace zr::net {

/// The extension block of a traced request: its trace context.
std::string EncodeTraceContextExt(const obs::TraceContext& ctx);

/// The extension block of the response to a traced request: the first
/// kMaxSpansPerFrame of `spans`.
std::string EncodeSpanReportExt(const std::vector<obs::SpanRecord>& spans);

/// Strips the extension block ([u8 ext_len][ext bytes]) off a flagged
/// frame body and decodes what the receiving side cares about: the trace
/// context (server side, `ctx` non-null) or the span report (client side,
/// `spans` non-null, replaced). Unknown extension types are skipped for
/// forward compatibility. Returns false on a torn/oversized/malformed
/// extension — receivers treat that exactly like a corrupt length prefix.
bool ConsumeFrameExtension(std::string_view* body, obs::TraceContext* ctx,
                           std::vector<obs::SpanRecord>* spans);

/// Ceiling on ServerConfig::WithLoops — beyond this a "number of loops"
/// is almost certainly a units mistake, and per-loop listen sockets /
/// wake pipes stop being cheap.
inline constexpr size_t kMaxEventLoops = 64;

// ---------------------------------------------------------------------------
// Wire tap
// ---------------------------------------------------------------------------

/// Passive observer of the complete frames a client session sends and
/// receives (TcpSession::SetWireTap). The adversarial traffic suite
/// (src/attack/) implements this to reconstruct what an eavesdropper sees;
/// net itself never parses on behalf of an observer — the tap hands over
/// exactly the bytes, nothing more.
///
/// Contract:
///  * `stream` identifies one connection: the id given at tap installation.
///  * `client_to_server` is true for request frames.
///  * `payload` is the message payload with any frame extension already
///    stripped — the same bytes Transport::stats() accounts.
///  * `frame_bytes` is the full on-socket size of the frame: header +
///    extension + payload. Summing frame_bytes over all observed frames
///    of a session must equal the socket byte counters exactly (asserted
///    in tests/attack_trace_test.cc).
///
/// Threading: a session invokes its tap only from its (single) owning
/// thread; one observer tapping several sessions on different threads must
/// be thread-safe. Observers must not call back into the session. The tap
/// is borrowed and must outlive the tapped session.
class FrameObserver {
 public:
  virtual ~FrameObserver() = default;
  virtual void OnFrame(uint64_t stream, bool client_to_server,
                       std::string_view payload, uint64_t frame_bytes) = 0;
};

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// Client-side timeout budget, shared by every layer that opens sessions
/// (TcpSession, TcpTransport, cluster::ShardClient) so deadlines are
/// expressed in exactly one convention instead of being re-derived
/// per call site.
struct Deadlines {
  /// Connect timeout (non-blocking connect + poll): a blackholed or dead
  /// address fails fast instead of hanging for the kernel's SYN
  /// retransmit budget (minutes). 0 keeps the blocking connect(2).
  uint64_t connect_ms = 5000;

  /// Receive timeout: a server that stops responding surfaces an error
  /// instead of hanging the client forever. 0 disables.
  uint64_t recv_ms = 30000;

  static constexpr Deadlines Of(uint64_t connect_ms, uint64_t recv_ms) {
    return Deadlines{connect_ms, recv_ms};
  }

  /// No deadlines at all: blocking connect, unbounded receive. For tests
  /// that must not race a timer.
  static constexpr Deadlines None() { return Deadlines{0, 0}; }
};

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Cumulative counters of one TcpServer (a counter set,
/// obs/counter_set.h): sessions accepted and closed, request frames decoded
/// and dispatched, protocol errors (oversized, torn or unparseable input),
/// and socket bytes read and written (frame headers included). Maintained
/// as one atomic shard per event loop; TcpServer::stats() merges the
/// shards, per_loop_stats() exposes them individually. Safe to read from
/// any thread while the server runs.
#define ZR_TCP_SERVER_STATS_FIELDS(X) \
  X(connections_accepted)             \
  X(connections_closed)               \
  X(frames_served)                    \
  X(protocol_errors)                  \
  X(bytes_read)                       \
  X(bytes_written)
ZR_COUNTER_SET(TcpServerStats, ZR_TCP_SERVER_STATS_FIELDS);

/// How a multi-loop server spreads incoming connections across its loops.
/// Irrelevant when num_loops == 1 (the single loop owns the listener).
enum class AcceptMode {
  /// One listening socket per loop, all bound to the same address with
  /// SO_REUSEPORT; the kernel picks the loop per connection. No
  /// cross-thread hand-off at all. The default.
  kReusePort,
  /// Loop 0 owns the single listening socket and deals accepted fds to
  /// the loops round-robin through their wake pipes. The
  /// deterministic-placement mode tests use.
  kHandOff,
};

/// Validated construction surface of TcpServer (replaces the old plain
/// Options struct). Build one with a named constructor, chain WithX
/// setters, and hand it to TcpServer::Start — which runs Validate() and
/// refuses nonsense (zero loops, zero frame ceiling, a backlog smaller
/// than one frame, an unparseable address) before touching a socket.
class ServerConfig {
 public:
  /// Loopback on an ephemeral port, one loop — the config every test
  /// started from under the old API.
  ServerConfig() = default;

  /// Loopback ("127.0.0.1") on `port`; 0 picks an ephemeral port (read
  /// the actual one back from TcpServer::address()).
  static ServerConfig Local(uint16_t port = 0);

  /// Explicit "host:port" listen address (numeric IPv4).
  static ServerConfig At(std::string listen_addr);

  /// Number of event-loop threads. Each accepted session is pinned to one
  /// loop for its lifetime.
  ServerConfig& WithLoops(size_t num_loops);

  ServerConfig& WithAcceptMode(AcceptMode mode);

  /// Frames whose payload exceeds this are answered with an
  /// InvalidArgument error frame and the connection is closed.
  ServerConfig& WithMaxFramePayload(size_t bytes);

  /// Backpressure high-water mark: while a session's unflushed output
  /// exceeds this, its loop stops reading (and dispatching) that session
  /// until the backlog drains, so a client that pipelines requests
  /// without consuming responses cannot grow server memory without bound.
  /// One response may overshoot the mark (it is checked before dispatch),
  /// so worst-case buffered output per session is
  /// max_session_backlog + max_frame_payload. Must be at least
  /// max_frame_payload (Validate enforces it): a smaller backlog could
  /// never admit the response it is supposed to buffer.
  ServerConfig& WithMaxSessionBacklog(size_t bytes);

  /// Identity echoed in every PingResponse. A router probing a shard
  /// after reconnect verifies this to detect a different server on a
  /// recycled address.
  ServerConfig& WithServerId(uint64_t id);

  /// Counters returned for a StatsRequest frame. When unset, stats
  /// requests are answered with an Unimplemented error frame.
  ServerConfig& WithStatsSource(std::function<StatsResponse()> source);

  /// Handler for operator AclRequest frames. When unset, ACL requests are
  /// answered with an Unimplemented error frame. Invoked on the owning
  /// loop's thread under the server-wide writer dispatch gate — no other
  /// frame is being dispatched on any loop while it runs, which is
  /// exactly the quiescence the backend's ACL surface requires.
  ServerConfig& WithAclHandler(std::function<Status(const AclRequest&)> handler);

  /// Rejects configurations that cannot serve: zero or absurdly many
  /// loops, a zero frame ceiling, a session backlog below the frame
  /// ceiling, or a listen address that does not parse. Start() calls this
  /// first; call it yourself to fail at construction time.
  Status Validate() const;

  const std::string& listen_addr() const { return listen_addr_; }
  size_t num_loops() const { return num_loops_; }
  AcceptMode accept_mode() const { return accept_mode_; }
  size_t max_frame_payload() const { return max_frame_payload_; }
  size_t max_session_backlog() const { return max_session_backlog_; }
  uint64_t server_id() const { return server_id_; }
  const std::function<StatsResponse()>& stats_source() const {
    return stats_source_;
  }
  const std::function<Status(const AclRequest&)>& acl_handler() const {
    return acl_handler_;
  }

 private:
  std::string listen_addr_ = "127.0.0.1:0";
  size_t num_loops_ = 1;
  AcceptMode accept_mode_ = AcceptMode::kReusePort;
  size_t max_frame_payload_ = kDefaultMaxFramePayload;
  size_t max_session_backlog_ = kDefaultMaxFramePayload;
  uint64_t server_id_ = 0;
  std::function<StatsResponse()> stats_source_;
  std::function<Status(const AclRequest&)> acl_handler_;
};

/// Socket server for the ZerberService protocol.
///
/// Ownership: the backend is borrowed and must outlive the server. The
/// server owns its listening socket(s), all accepted sessions, and its
/// event-loop threads; the destructor stops the loops, joins the threads
/// and closes every socket.
class TcpServer {
 public:
  /// Validates the config, binds, listens and starts the event-loop
  /// threads. On success the server is accepting connections before Start
  /// returns.
  static StatusOr<std::unique_ptr<TcpServer>> Start(ZerberService* backend,
                                                    ServerConfig config);
  static StatusOr<std::unique_ptr<TcpServer>> Start(ZerberService* backend);

  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound address as "host:port" with the actual port (useful with
  /// an ephemeral listen port).
  const std::string& address() const { return address_; }

  /// Stops every event loop, closes every session and joins the threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Closes every currently open session (the listeners stay up). A
  /// fan-out barrier: each loop is asked to drain and DisconnectAll
  /// returns only once every loop has closed its sessions. Clients
  /// observe a peer disconnect; used by tests and operational drains.
  void DisconnectAll();

  /// Point-in-time snapshot of the counters, merged across loops.
  TcpServerStats stats() const;

  /// One stats shard per event loop, index == loop id (the id a
  /// PingResponse echoes).
  std::vector<TcpServerStats> per_loop_stats() const;

  /// Number of event loops serving.
  size_t num_loops() const;

  /// Currently open sessions across all loops (gauge).
  size_t open_sessions() const;

 private:
  class Impl;
  explicit TcpServer(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
  std::string address_;
};

// ---------------------------------------------------------------------------
// Client session
// ---------------------------------------------------------------------------

/// Real socket traffic of a client session/transport (a counter set,
/// obs/counter_set.h): socket bytes written and read (frame headers
/// included), complete request frames written and response frames read,
/// frame-extension bytes written and read (tracing), and successful
/// reconnections after an error. payload bytes == socket bytes -
/// kFrameHeaderBytes * frames - ext bytes (only complete frames are
/// counted, so the identity is exact; ext bytes are zero unless tracing put
/// extensions on the wire).
#define ZR_TCP_SOCKET_STATS_FIELDS(X) \
  X(bytes_up)                         \
  X(bytes_down)                       \
  X(frames_up)                        \
  X(frames_down)                      \
  X(ext_bytes_up)                     \
  X(ext_bytes_down)                   \
  X(reconnects)
ZR_COUNTER_SET(TcpSocketStats, ZR_TCP_SOCKET_STATS_FIELDS);

/// One client connection: connect, framed send/receive, pipelining.
///
/// Threading: single-threaded; not locked. Ownership: owns its socket fd.
class TcpSession {
 public:
  struct Options {
    size_t max_frame_payload = kDefaultMaxFramePayload;

    /// Connect/receive timeout budget. The default fails a dead address
    /// in 5s and an unresponsive server in 30s; Deadlines::None()
    /// restores fully blocking IO.
    Deadlines deadlines;
  };

  explicit TcpSession(std::string connect_addr);
  TcpSession(std::string connect_addr, Options options);
  ~TcpSession();

  TcpSession(const TcpSession&) = delete;
  TcpSession& operator=(const TcpSession&) = delete;

  /// Connects if not connected (called implicitly by SendFrame). After an
  /// IO error the session is `broken()` until the next Connect.
  Status Connect();

  /// True when a previous IO operation failed; the next SendFrame will
  /// reconnect first.
  bool broken() const { return fd_ < 0; }

  /// Writes one frame (header + payload), handling partial writes.
  Status SendFrame(std::string_view payload);

  /// Reads one complete frame payload, handling partial reads. A peer
  /// disconnect or timeout breaks the session and returns an error. When
  /// the frame carries a span-report extension (the response to a traced
  /// request), the spans are exposed via response_spans() until the next
  /// RecvFrame.
  Status RecvFrame(std::string* payload);

  /// Spans decoded from the last received frame's extension (empty for
  /// plain frames). Trace ids are zero — the caller owns the context.
  const std::vector<obs::SpanRecord>& response_spans() const {
    return response_spans_;
  }

  /// Drops the connection (the next SendFrame reconnects). Used when the
  /// stream position can no longer be trusted — e.g. a response that
  /// fails to parse, behind which another frame may be queued.
  void Disconnect();

  /// One round trip: SendFrame then RecvFrame.
  Status Call(std::string_view request, std::string* response);

  /// One typed round trip: sends `request` and decodes the answer (see
  /// DecodeResponse).
  template <WireRequest Request>
  StatusOr<typename Request::Response> Call(const Request& request);

  const TcpSocketStats& socket_stats() const { return socket_stats_; }
  void ResetSocketStats() { socket_stats_ = TcpSocketStats(); }

  /// Installs a passive wire tap reporting every complete frame this
  /// session sends or receives under stream id `stream` (see
  /// FrameObserver's contract). nullptr removes the tap; with no tap the
  /// session's behavior and byte accounting are untouched.
  void SetWireTap(FrameObserver* tap, uint64_t stream) {
    wire_tap_ = tap;
    wire_tap_stream_ = stream;
  }

  const std::string& connect_addr() const { return connect_addr_; }

 private:
  void MarkBroken();

  std::string connect_addr_;
  Options options_;
  int fd_ = -1;
  bool ever_connected_ = false;
  TcpSocketStats socket_stats_;
  std::vector<obs::SpanRecord> response_spans_;
  FrameObserver* wire_tap_ = nullptr;
  uint64_t wire_tap_stream_ = 0;
};

/// Decodes a response payload received on `session`: an ErrorResponse
/// becomes its Status, anything else must parse as a Response. A payload
/// that does not parse disconnects the session — the stream position can
/// no longer be trusted, and a frame queued behind the bad one must not be
/// read as the next call's answer. Every client of the protocol
/// (TcpTransport, cluster::ShardClient) decodes through this.
template <WireMessage Response>
StatusOr<Response> DecodeResponse(TcpSession* session, std::string_view wire) {
  if (TagOf(wire) == MessageTag::kErrorResponse) {
    StatusOr<ErrorResponse> error = Parse<ErrorResponse>(wire);
    if (!error.ok()) {
      session->Disconnect();
      return error.status();
    }
    return error->status();
  }
  StatusOr<Response> response = Parse<Response>(wire);
  if (!response.ok()) session->Disconnect();
  return response;
}

template <WireRequest Request>
StatusOr<typename Request::Response> TcpSession::Call(const Request& request) {
  std::string wire;
  ZR_RETURN_IF_ERROR(Call(Serialize(request), &wire));
  return DecodeResponse<typename Request::Response>(this, wire);
}

/// Records the hop of a traced request (`request` holds its wire bytes)
/// that `session` carried, begun at `start_ns` (obs::MonotonicNowNs): the
/// hop as an obs::Stage::kTransport span tagged with the request's tag,
/// then the spans the server reported in the response frame, which enter
/// this process's tracer under the same trace id. No-op when the calling
/// thread carries no trace. TcpTransport and cluster::ShardClient record
/// every hop through this.
void RecordHop(const TcpSession& session, std::string_view request,
               uint64_t start_ns);

// ---------------------------------------------------------------------------
// Client transport
// ---------------------------------------------------------------------------

/// Client-side Transport over a TcpSession.
///
/// Byte accounting: Transport::stats() records message payload bytes (the
/// identical quantity DirectTransport computes analytically — asserted per
/// request via the WireSize drift check); socket_stats() additionally
/// records the real socket traffic including the 4-byte frame headers.
///
/// Reconnect-on-error: when the connection is found dead while *sending*
/// a request (server restarted, idle disconnect), the transport
/// reconnects once and resends — nothing reached the server, so the retry
/// is safe for every message type. A failure after the request was sent
/// (disconnect mid-response, timeout) is surfaced to the caller as an
/// Internal "tcp:" error — the server may or may not have applied the
/// request, and only the caller can decide whether a retry is idempotent.
/// The session reconnects on the next call. A response that fails to
/// parse also drops the connection (see DecodeResponse) and surfaces the
/// parse error.
///
/// Threading: single-threaded, like every Transport; one per client
/// thread.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(std::string connect_addr,
                        TcpSession::Options options = TcpSession::Options());

  StatusOr<InsertResponse> Insert(const InsertRequest& request) override;
  StatusOr<QueryResponse> Fetch(const QueryRequest& request) override;
  StatusOr<MultiFetchResponse> MultiFetch(
      const MultiFetchRequest& request) override;
  StatusOr<DeleteResponse> Delete(const DeleteRequest& request) override;

  const TcpSocketStats& socket_stats() const { return session_.socket_stats(); }

  /// Resets both payload accounting and socket counters.
  void ResetStats() override;

  TcpSession& session() { return session_; }

 private:
  /// One framed exchange with send-side reconnect. `*response_wire` holds
  /// the raw response payload on success.
  Status ExchangeFrames(const std::string& request_wire,
                        std::string* response_wire);

  /// The one exchange path of every request type.
  template <WireRequest Request>
  StatusOr<typename Request::Response> Exchange(const Request& request);

  TcpSession session_;
};

}  // namespace zr::net

#endif  // ZERBERR_NET_TCP_H_
