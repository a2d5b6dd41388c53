// ShardClient: the router's fault-tolerant connection to one shard server.
//
// One instance per remote shard process. Wraps a small pool of TcpSession
// connections with the fault-handling the single-shard TcpTransport does
// not need:
//
//  * retry with exponential backoff + jitter (util/backoff.h) — bounded by
//    max_attempts. A failure while *sending* retries for every op (nothing
//    reached the server); a failure while *receiving* retries only for
//    idempotent ops (Fetch/MultiFetch/Stats/Ping/Acl — re-applying is
//    harmless). A receive failure of an Insert/Delete is surfaced: the
//    server may or may not have applied it, and only the caller can decide.
//  * circuit breaker — `breaker_threshold` consecutive transport failures
//    open the breaker; while open, calls fail fast with Status::Unavailable
//    instead of burning a connect timeout each. After the open window
//    (escalating via Backoff) the next call half-opens: a Ping probe that
//    verifies the echoed server_id closes the breaker (a rejoin) or
//    re-opens it with a longer window.
//  * per-request deadlines — one net::Deadlines budget (shared with
//    TcpSession, so there is exactly one timeout convention):
//    deadlines.connect_ms bounds connection establishment,
//    deadlines.recv_ms bounds each response wait, so a dead or wedged
//    shard costs bounded time per attempt.
//
// Typed errors decoded from the shard's error frames (NotFound, OutOfRange,
// PermissionDenied, ...) pass through untouched: the shard answered, so they
// neither retry nor count against the breaker.
//
// Threading: thread-safe. The router's MultiFetch fan-out calls one
// ShardClient from pool workers while single-exchange requests arrive from
// any number of serving threads; the pool checkout/return and breaker state
// are mutex-guarded, and no lock is held across socket IO.

#ifndef ZERBERR_CLUSTER_SHARD_CLIENT_H_
#define ZERBERR_CLUSTER_SHARD_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/messages.h"
#include "net/service.h"
#include "net/tcp.h"
#include "obs/counter_set.h"
#include "util/backoff.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace zr::cluster {

struct ShardClientOptions {
  /// "host:port" of the shard server.
  std::string addr;

  /// Identity the shard must echo in probe responses (the shard's index).
  /// Catches a different server answering on a recycled address.
  uint64_t expected_server_id = 0;

  /// Idle connections kept for reuse. Checkout opens a new connection when
  /// the pool is empty, so this bounds memory, not concurrency.
  size_t pool_size = 2;

  /// Timeout budget for every session the client opens (the same
  /// Deadlines struct TcpSession::Options carries — no second timeout
  /// convention). Tighter than the session defaults: a router probes and
  /// fails over, so it wants dead shards detected in about a second.
  net::Deadlines deadlines = net::Deadlines::Of(/*connect_ms=*/1000,
                                                /*recv_ms=*/5000);

  /// Total attempts per operation (first try + retries).
  size_t max_attempts = 3;

  /// Delays between retry attempts.
  Backoff::Options retry_backoff = {/*base_delay_ms=*/10,
                                    /*max_delay_ms=*/500,
                                    /*multiplier=*/2.0,
                                    /*jitter=*/0.25,
                                    /*seed=*/1};

  /// Consecutive transport failures that open the circuit breaker.
  size_t breaker_threshold = 3;

  /// Open-window escalation: window i is this backoff's delay i (jitter
  /// included), so a shard that stays dead is probed ever less often.
  Backoff::Options breaker_backoff = {/*base_delay_ms=*/50,
                                      /*max_delay_ms=*/2000,
                                      /*multiplier=*/2.0,
                                      /*jitter=*/0.25,
                                      /*seed=*/2};

  size_t max_frame_payload = net::kDefaultMaxFramePayload;
};

/// Counters of one ShardClient (a counter set, obs/counter_set.h; all
/// cumulative, snapshot via stats()): request attempts put on a socket,
/// attempts that died in transit, attempts after the first for one op,
/// calls that failed fast or exhausted their retries, health probes sent,
/// probes that failed or saw the wrong server id, closed/half-open -> open
/// breaker transitions, and open -> closed transitions (a probe succeeded).
#define ZR_SHARD_CLIENT_STATS_FIELDS(X) \
  X(attempts)                           \
  X(transport_errors)                   \
  X(retries)                            \
  X(unavailable)                        \
  X(probes)                             \
  X(probe_failures)                     \
  X(breaker_opens)                      \
  X(rejoins)
ZR_COUNTER_SET(ShardClientStats, ZR_SHARD_CLIENT_STATS_FIELDS);

/// The remote shard handle of a net::ShardRouter (see
/// cluster::RouterService).
class ShardClient : public net::ShardService {
 public:
  explicit ShardClient(ShardClientOptions options);

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// Typed exchanges. List ids and handles are the *local* coordinates of
  /// this shard — the router translates before calling.
  StatusOr<net::InsertResponse> Insert(
      const net::InsertRequest& request) override;
  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest& request) override;
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override;
  StatusOr<net::DeleteResponse> Delete(
      const net::DeleteRequest& request) override;
  Status Acl(const net::AclRequest& request) override;
  StatusOr<net::StatsResponse> Stats() override;

  /// One health probe: ping, verify token echo + server id. Success closes
  /// the breaker (counted as a rejoin when it was open); failure opens it.
  Status Probe();

  /// True when the breaker is closed (calls will be attempted).
  bool available() const;

  ShardClientStats stats() const;

  const std::string& addr() const { return options_.addr; }

 private:
  enum class Breaker { kClosed, kOpen };

  /// One pooled connection checkout (creates when the pool is empty).
  std::unique_ptr<net::TcpSession> Checkout();
  void Return(std::unique_ptr<net::TcpSession> session);

  /// Admission decision for one attempt. Fail-fast Unavailable while the
  /// breaker is open and the window has not elapsed; a half-open probe
  /// otherwise.
  Status Admit();

  void RecordFailure();
  void RecordSuccess();

  /// Retry loop shared by every op: exchange the serialized request with
  /// admission/backoff/accounting, hand back the raw response payload
  /// (which may be a typed error frame) and the session that carried it.
  StatusOr<std::unique_ptr<net::TcpSession>> Exchange(
      const std::string& request_wire, bool idempotent,
      std::string* response_wire);

  /// One op, the one typed path of every request: serialize, Exchange,
  /// net::DecodeResponse, then return the session to the pool — in that
  /// order, so a session whose response did not parse (and was
  /// disconnected) is dropped instead of pooled.
  template <net::WireRequest Request>
  StatusOr<typename Request::Response> Call(const Request& request,
                                            bool idempotent);

  /// Probe over a session the caller holds; no pool or breaker traffic.
  Status ProbeOn(net::TcpSession* session);

  ShardClientOptions options_;
  net::TcpSession::Options session_options_;

  // Pool checkout/return and breaker state share one lock; no lock is ever
  // held across socket IO (sessions leave the pool while in use).
  mutable Mutex mu_;
  std::vector<std::unique_ptr<net::TcpSession>> pool_ ZR_GUARDED_BY(mu_);
  Backoff breaker_backoff_ ZR_GUARDED_BY(mu_);
  Breaker breaker_ ZR_GUARDED_BY(mu_) = Breaker::kClosed;
  uint64_t open_window_ms_ ZR_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point opened_at_ ZR_GUARDED_BY(mu_);
  size_t consecutive_failures_ ZR_GUARDED_BY(mu_) = 0;
  uint64_t probe_token_ ZR_GUARDED_BY(mu_) = 0;
  ShardClientStats stats_ ZR_GUARDED_BY(mu_);
};

}  // namespace zr::cluster

#endif  // ZERBERR_CLUSTER_SHARD_CLIENT_H_
