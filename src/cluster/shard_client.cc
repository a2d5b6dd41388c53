#include "cluster/shard_client.h"

#include <thread>
#include <utility>

#include "obs/trace.h"

namespace zr::cluster {

ShardClient::ShardClient(ShardClientOptions options)
    : options_(std::move(options)), breaker_backoff_(options_.breaker_backoff) {
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  if (options_.breaker_threshold == 0) options_.breaker_threshold = 1;
  session_options_.max_frame_payload = options_.max_frame_payload;
  session_options_.deadlines = options_.deadlines;
}

std::unique_ptr<net::TcpSession> ShardClient::Checkout() {
  {
    MutexLock lock(mu_);
    if (!pool_.empty()) {
      std::unique_ptr<net::TcpSession> session = std::move(pool_.back());
      pool_.pop_back();
      return session;
    }
  }
  return std::make_unique<net::TcpSession>(options_.addr, session_options_);
}

void ShardClient::Return(std::unique_ptr<net::TcpSession> session) {
  if (session->broken()) return;  // discard; the next checkout reconnects
  MutexLock lock(mu_);
  if (pool_.size() < options_.pool_size) pool_.push_back(std::move(session));
}

void ShardClient::RecordFailure() {
  MutexLock lock(mu_);
  ++consecutive_failures_;
  if (breaker_ == Breaker::kClosed &&
      consecutive_failures_ >= options_.breaker_threshold) {
    breaker_ = Breaker::kOpen;
    ++stats_.breaker_opens;
    open_window_ms_ = breaker_backoff_.NextDelayMs();
    opened_at_ = std::chrono::steady_clock::now();
  } else if (breaker_ == Breaker::kOpen) {
    // Already open (a failed half-open probe): escalate the window.
    open_window_ms_ = breaker_backoff_.NextDelayMs();
    opened_at_ = std::chrono::steady_clock::now();
  }
  // A broken connection may have poisoned its pooled siblings (server
  // restart kills them all); drop them so retries reconnect fresh.
  pool_.clear();
}

void ShardClient::RecordSuccess() {
  MutexLock lock(mu_);
  consecutive_failures_ = 0;
  if (breaker_ == Breaker::kOpen) {
    breaker_ = Breaker::kClosed;
    ++stats_.rejoins;
    breaker_backoff_.Reset();
  }
}

bool ShardClient::available() const {
  MutexLock lock(mu_);
  return breaker_ == Breaker::kClosed;
}

ShardClientStats ShardClient::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

Status ShardClient::Admit() {
  {
    MutexLock lock(mu_);
    if (breaker_ == Breaker::kClosed) return Status::OK();
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - opened_at_)
                       .count();
    if (elapsed >= 0 &&
        static_cast<uint64_t>(elapsed) < open_window_ms_) {
      return Status::Unavailable("shard " + options_.addr +
                                 ": circuit breaker open");
    }
  }
  // Open window elapsed: half-open. One probe decides (racing callers may
  // both probe; harmless).
  Status probed = Probe();
  if (!probed.ok()) {
    return Status::Unavailable("shard " + options_.addr +
                               ": health probe failed: " + probed.message());
  }
  return Status::OK();
}

Status ShardClient::ProbeOn(net::TcpSession* session) {
  net::PingRequest ping;
  {
    MutexLock lock(mu_);
    ping.token = ++probe_token_;
  }
  ZR_ASSIGN_OR_RETURN(net::PingResponse pong, session->Call(ping));
  if (pong.token != ping.token) {
    return Status::Internal("shard " + options_.addr +
                            ": probe token mismatch");
  }
  if (pong.server_id != options_.expected_server_id) {
    return Status::Internal(
        "shard " + options_.addr + ": expected server id " +
        std::to_string(options_.expected_server_id) + ", got " +
        std::to_string(pong.server_id));
  }
  return Status::OK();
}

Status ShardClient::Probe() {
  {
    MutexLock lock(mu_);
    ++stats_.probes;
  }
  std::unique_ptr<net::TcpSession> session = Checkout();
  Status probed = ProbeOn(session.get());
  if (probed.ok()) {
    RecordSuccess();
    Return(std::move(session));
    return Status::OK();
  }
  {
    MutexLock lock(mu_);
    ++stats_.probe_failures;
  }
  RecordFailure();
  return probed;
}

StatusOr<std::unique_ptr<net::TcpSession>> ShardClient::Exchange(
    const std::string& request_wire, bool idempotent,
    std::string* response_wire) {
  Backoff retry(options_.retry_backoff);
  Status last = Status::OK();
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      {
        MutexLock lock(mu_);
        ++stats_.retries;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retry.NextDelayMs()));
    }
    Status admitted = Admit();
    if (!admitted.ok()) {
      // Fail fast: the breaker is open (or the half-open probe failed);
      // in-op retries would only stack more sleeps onto a dead shard.
      MutexLock lock(mu_);
      ++stats_.unavailable;
      return admitted;
    }
    std::unique_ptr<net::TcpSession> session = Checkout();
    {
      MutexLock lock(mu_);
      ++stats_.attempts;
    }
    // When the calling thread carries a trace, SendFrame attaches the
    // context to the request frame and RecvFrame harvests the server's
    // span report; time the hop here so the trace attributes wire time
    // per attempt (only the successful attempt is recorded).
    const uint64_t hop_start =
        obs::CurrentTrace().active() ? obs::MonotonicNowNs() : 0;
    Status sent = session->SendFrame(request_wire);
    if (!sent.ok()) {
      if (sent.IsInvalidArgument()) return sent;  // oversized, not a dead link
      {
        MutexLock lock(mu_);
        ++stats_.transport_errors;
      }
      RecordFailure();
      last = sent;
      continue;  // nothing reached the server — safe for every op
    }
    Status received = session->RecvFrame(response_wire);
    if (!received.ok()) {
      {
        MutexLock lock(mu_);
        ++stats_.transport_errors;
      }
      RecordFailure();
      if (!idempotent) {
        // The request was sent; the shard may or may not have applied it.
        // Surface the transport error rather than risk a double apply.
        return received;
      }
      last = received;
      continue;
    }
    net::RecordHop(*session, request_wire, hop_start);
    RecordSuccess();
    return session;
  }
  {
    MutexLock lock(mu_);
    ++stats_.unavailable;
  }
  return Status::Unavailable("shard " + options_.addr + ": unavailable after " +
                             std::to_string(options_.max_attempts) +
                             " attempts: " + last.message());
}

template <net::WireRequest Request>
StatusOr<typename Request::Response> ShardClient::Call(const Request& request,
                                                       bool idempotent) {
  std::string wire;
  ZR_ASSIGN_OR_RETURN(std::unique_ptr<net::TcpSession> session,
                      Exchange(net::Serialize(request), idempotent, &wire));
  auto response =
      net::DecodeResponse<typename Request::Response>(session.get(), wire);
  Return(std::move(session));
  return response;
}

StatusOr<net::InsertResponse> ShardClient::Insert(
    const net::InsertRequest& request) {
  return Call(request, /*idempotent=*/false);
}

StatusOr<net::QueryResponse> ShardClient::Fetch(
    const net::QueryRequest& request) {
  return Call(request, /*idempotent=*/true);
}

StatusOr<net::MultiFetchResponse> ShardClient::MultiFetch(
    const net::MultiFetchRequest& request) {
  return Call(request, /*idempotent=*/true);
}

StatusOr<net::DeleteResponse> ShardClient::Delete(
    const net::DeleteRequest& request) {
  return Call(request, /*idempotent=*/false);
}

Status ShardClient::Acl(const net::AclRequest& request) {
  // Idempotent by contract: the shard server applies ACL mutations
  // idempotently (a re-sent grant is a no-op), so receive failures retry.
  return Call(request, /*idempotent=*/true).status();
}

StatusOr<net::StatsResponse> ShardClient::Stats() {
  return Call(net::StatsRequest{}, /*idempotent=*/true);
}

}  // namespace zr::cluster
