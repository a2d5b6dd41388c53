#include "net/shard_router.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace zr::net {

namespace {

/// Records a kRouterFanout span around one shard call when the calling
/// thread carries an active trace (no-op otherwise). Span detail is the
/// shard index — a topology coordinate, never index content.
class FanoutSpan {
 public:
  explicit FanoutSpan(size_t shard)
      : traced_(obs::CurrentTrace().active()),
        shard_(shard),
        start_(traced_ ? obs::MonotonicNowNs() : 0) {}

  FanoutSpan(const FanoutSpan&) = delete;
  FanoutSpan& operator=(const FanoutSpan&) = delete;

  ~FanoutSpan() {
    if (!traced_) return;
    obs::RecordSpan(obs::Stage::kRouterFanout,
                    obs::MonotonicNowNs() - start_, shard_);
  }

 private:
  bool traced_;
  uint64_t shard_;
  uint64_t start_;
};

}  // namespace

ShardRouter::ShardRouter(size_t num_lists,
                         std::vector<std::unique_ptr<ShardService>> shards,
                         size_t num_workers)
    : num_lists_(num_lists), shards_(std::move(shards)) {
  if (num_workers == kAutoWorkers) {
    size_t hardware = std::thread::hardware_concurrency();
    if (hardware == 0) hardware = 2;
    size_t target = std::min(shards_.size(), hardware);
    num_workers = target > 0 ? target - 1 : 0;
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ShardRouter::~ShardRouter() {
  {
    MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ShardRouter::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) return;  // stopping, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ShardRouter::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(queue_mu_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.NotifyOne();
}

Status ShardRouter::CheckList(zerber::MergedListId list) const {
  if (list >= num_lists_) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  return Status::OK();
}

// Single-exchange requests forward to the owning shard even when the global
// list id is out of range: a global id >= num_lists always maps to a local
// id >= that shard's list count (L = s + k*N is valid iff k < the shard's
// count), so the shard rejects it with OutOfRange — and counts the request,
// keeping ServerStats totals identical to one unsharded IndexServer's.
template <typename Request, typename Response>
StatusOr<Response> ShardRouter::Forward(
    StatusOr<Response> (ZerberService::*call)(const Request&),
    const Request& request) {
  Request local = request;
  local.list = LocalListId(request.list);
  size_t s = ShardOfList(request.list);
  FanoutSpan span(s);
  StatusOr<Response> response = (shards_[s].get()->*call)(local);
  // Backend semantics: byte accounting is the client-side transport's job.
  if (response.ok()) response->wire_size = 0;
  return response;
}

StatusOr<InsertResponse> ShardRouter::Insert(const InsertRequest& request) {
  return Forward(&ZerberService::Insert, request);
}

StatusOr<QueryResponse> ShardRouter::Fetch(const QueryRequest& request) {
  return Forward(&ZerberService::Fetch, request);
}

StatusOr<DeleteResponse> ShardRouter::Delete(const DeleteRequest& request) {
  // Routes by list id alone. A handle whose residue class disagrees with
  // the list's shard cannot exist there (shard s only ever assigns handles
  // with h % N == s); the shard's own lookup reports it NotFound.
  return Forward(&ZerberService::Delete, request);
}

StatusOr<MultiFetchResponse> ShardRouter::MultiFetch(
    const MultiFetchRequest& request) {
  const std::vector<FetchRange>& fetches = request.fetches;
  for (const FetchRange& f : fetches) ZR_RETURN_IF_ERROR(CheckList(f.list));

  // Group ranges by owning shard; one sub-MultiFetch per shard with work.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < fetches.size(); ++i) {
    by_shard[ShardOfList(fetches[i].list)].push_back(i);
  }
  std::vector<size_t> active;
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (!by_shard[s].empty()) active.push_back(s);
  }

  MultiFetchResponse response;
  response.responses.resize(fetches.size());

  // On several failing shards, surface the error of the batch that starts
  // earliest in the request (ranges group in order, so this is the error
  // an in-order serial execution would have hit first).
  Mutex error_mu;
  size_t first_error_index = static_cast<size_t>(-1);
  Status first_error = Status::OK();

  // Pool threads carry no trace of their own: under a traced request each
  // batch re-installs the caller's context and records into its own
  // collector, and the calling thread re-records the spans after the join.
  const obs::TraceContext trace = obs::CurrentTrace();
  std::vector<obs::SpanCollector> batch_spans(
      trace.active() ? shards_.size() : 0);

  auto run_shard = [&](size_t s) {
    std::optional<obs::ScopedTrace> scoped_trace;
    std::optional<obs::ScopedSpanSink> scoped_sink;
    if (trace.active()) {
      scoped_trace.emplace(trace);
      scoped_sink.emplace(&batch_spans[s]);
    }
    MultiFetchRequest sub;
    sub.user = request.user;
    sub.fetches.reserve(by_shard[s].size());
    for (size_t idx : by_shard[s]) {
      FetchRange local = fetches[idx];
      local.list = LocalListId(local.list);
      sub.fetches.push_back(local);
    }
    FanoutSpan span(s);
    StatusOr<MultiFetchResponse> fetched = shards_[s]->MultiFetch(sub);
    if (fetched.ok() && fetched->responses.size() != sub.fetches.size()) {
      fetched = Status::Internal("shard " + std::to_string(s) +
                                 ": short multifetch response");
    }
    if (!fetched.ok()) {
      MutexLock lock(error_mu);
      if (by_shard[s].front() < first_error_index) {
        first_error_index = by_shard[s].front();
        first_error = fetched.status();
      }
      return;
    }
    for (size_t i = 0; i < by_shard[s].size(); ++i) {
      QueryResponse& out = response.responses[by_shard[s][i]];
      out = std::move(fetched->responses[i]);
      out.wire_size = 0;  // shard-hop accounting is not the client's
    }
  };

  if (active.size() <= 1 || workers_.empty()) {
    for (size_t s : active) run_shard(s);
  } else {
    // Fan out: every shard batch but the first goes to the pool; the
    // calling thread serves the first itself, then waits for the rest.
    Mutex done_mu;
    CondVar done_cv;
    size_t remaining = active.size() - 1;
    for (size_t i = 1; i < active.size(); ++i) {
      size_t s = active[i];
      Enqueue([&, s] {
        run_shard(s);
        // Notify *while holding the lock*: done_mu/done_cv live on the
        // caller's stack, and the caller may destroy them as soon as it
        // observes remaining == 0 — which it cannot do before this unlock.
        MutexLock lock(done_mu);
        --remaining;
        done_cv.NotifyOne();
      });
    }
    run_shard(active[0]);
    MutexLock lock(done_mu);
    while (remaining != 0) done_cv.Wait(done_mu);
  }

  for (const obs::SpanCollector& spans : batch_spans) {
    for (const obs::SpanRecord& span : spans.spans()) {
      obs::RecordSpan(span.stage, span.duration_ns, span.detail);
    }
  }
  if (first_error_index != static_cast<size_t>(-1)) return first_error;
  return response;
}

Status ShardRouter::AddGroup(crypto::GroupId group) {
  return Broadcast({AclRequest::Op::kAddGroup, /*user=*/0, group});
}

Status ShardRouter::GrantMembership(zerber::UserId user,
                                    crypto::GroupId group) {
  return Broadcast({AclRequest::Op::kGrant, user, group});
}

Status ShardRouter::RevokeMembership(zerber::UserId user,
                                     crypto::GroupId group) {
  return Broadcast({AclRequest::Op::kRevoke, user, group});
}

Status ShardRouter::Broadcast(const AclRequest& request) {
  for (auto& shard : shards_) ZR_RETURN_IF_ERROR(shard->Acl(request));
  return Status::OK();
}

zerber::ServerStats ShardRouter::stats() const {
  zerber::ServerStats total;
  for (const auto& shard : shards_) {
    StatusOr<StatsResponse> s = shard->Stats();
    if (s.ok()) total += *s;  // an unreachable shard contributes zeros
  }
  return total;
}

}  // namespace zr::net
