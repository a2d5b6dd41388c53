#include "load/driver.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include <map>

#include "core/pipeline.h"
#include "core/zerber_r_client.h"
#include "load/op_generator.h"
#include "net/shard_router.h"
#include "net/tcp.h"
#include "obs/registry.h"
#include "obs/slow_op_log.h"
#include "obs/trace.h"
#include "zerber/posting_element.h"
#include "zerber/zerber_client.h"

namespace zr::load {

namespace {

/// Load users start here; pipelines and tests use small user ids, so the
/// two populations never collide.
constexpr zerber::UserId kLoadUserBase = 100000;

/// Synthetic insert doc ids: a private per-worker range far above any
/// corpus document id.
constexpr text::DocId kDocBase = 0x40000000u;
constexpr uint32_t kDocStride = 1u << 22;

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Folds the drained tracer + slow-op rings into the report's "obs" block.
/// Deterministically all-zero when nothing was sampled.
ObsReport BuildObsReport(const std::vector<obs::SpanRecord>& spans,
                         const std::vector<obs::SlowOp>& slow_ops,
                         uint64_t dropped) {
  ObsReport out;
  out.spans = spans.size();
  out.dropped_spans = dropped;
  out.slow_ops = slow_ops.size();

  // Presence bits per trace id for the completeness test: a complete trace
  // crossed every tier — client op, router fanout, shard serve, WAL append.
  std::map<uint64_t, uint8_t> traces;
  for (const obs::SpanRecord& span : spans) {
    size_t idx = static_cast<size_t>(span.stage);
    if (idx < 1 || idx > obs::kNumStages) continue;
    ObsStageReport& stage = out.stages[idx - 1];
    ++stage.count;
    stage.total_ns += span.duration_ns;
    stage.max_ns = std::max(stage.max_ns, span.duration_ns);
    uint8_t bit = 0;
    switch (span.stage) {
      case obs::Stage::kClientOp: bit = 1; break;
      case obs::Stage::kRouterFanout: bit = 2; break;
      case obs::Stage::kShardServe: bit = 4; break;
      case obs::Stage::kWalAppend: bit = 8; break;
      default: break;
    }
    traces[span.trace_id] |= bit;
  }
  out.traces = traces.size();
  for (const auto& [id, mask] : traces) {
    if (mask != 15) continue;
    ++out.complete_traces;
    // std::map iterates ids ascending, so the first complete trace is the
    // smallest id — a deterministic choice of example.
    if (out.example_trace_id == 0) out.example_trace_id = id;
  }
  if (out.example_trace_id != 0) {
    for (const obs::SpanRecord& span : spans) {
      if (span.trace_id == out.example_trace_id) {
        out.example_spans.push_back(span);
      }
    }
  }
  return out;
}

}  // namespace

/// Everything one worker thread owns. Built on the setup thread, then used
/// exclusively by that worker's thread in each phase.
struct LoadDriver::WorkerState {
  size_t index = 0;
  OpGenerator generator;
  std::unique_ptr<net::Transport> transport;
  std::vector<std::unique_ptr<zerber::ZerberClient>> plain_clients;
  std::vector<std::unique_ptr<core::ZerberRClient>> zr_clients;

  /// Handles this worker may delete (its own inserts + its share of the
  /// preload).
  std::vector<PreloadedHandle> pool;

  uint32_t next_doc_seq = 0;

  struct ClassCounters {
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t skipped = 0;
    uint64_t elements = 0;
    uint64_t bytes = 0;
    uint64_t exchanges = 0;
    LatencyHistogram latency;
  };
  std::array<ClassCounters, kNumOpClasses> classes;

  WorkerState(const LoadSpec& spec, size_t worker_index, uint64_t num_terms)
      : index(worker_index), generator(spec, worker_index, num_terms) {}
};

zerber::UserId LoadDriver::LoadUserId(size_t index) {
  return kLoadUserBase + static_cast<zerber::UserId>(index);
}

LoadDriver::LoadDriver(const Deployment& deployment, const LoadSpec& spec,
                       NowFn now)
    : deployment_(deployment), spec_(spec), now_(std::move(now)) {}

LoadDriver::~LoadDriver() = default;

uint64_t LoadDriver::Now() const { return now_ ? now_() : SteadyNowNs(); }

Status LoadDriver::Setup() {
  ZR_RETURN_IF_ERROR(spec_.Validate());
  if (deployment_.backend == nullptr || deployment_.keys == nullptr ||
      deployment_.plan == nullptr || deployment_.corpus == nullptr ||
      deployment_.assigner == nullptr) {
    return Status::InvalidArgument("deployment is missing a component");
  }
  if (deployment_.transport == net::TransportKind::kTcp &&
      deployment_.connect_addr.empty()) {
    return Status::InvalidArgument(
        "tcp transport needs deployment.connect_addr");
  }
  if (deployment_.groups.empty()) {
    return Status::InvalidArgument("deployment has no provisioned groups");
  }

  // Popularity-ordered term table (document frequency descending, term id
  // ascending for determinism); Zipf rank 1 is the most frequent term.
  const text::Vocabulary& vocab = deployment_.corpus->vocabulary();
  std::vector<text::TermId> term_ids;
  for (text::TermId t : vocab.AllTermIds()) {
    if (deployment_.corpus->DocumentFrequency(t) > 0) term_ids.push_back(t);
  }
  if (term_ids.empty()) {
    return Status::FailedPrecondition("corpus has no indexed terms");
  }
  std::sort(term_ids.begin(), term_ids.end(),
            [&](text::TermId a, text::TermId b) {
              uint64_t da = deployment_.corpus->DocumentFrequency(a);
              uint64_t db = deployment_.corpus->DocumentFrequency(b);
              if (da != db) return da > db;
              return a < b;
            });
  terms_.reserve(term_ids.size());
  for (text::TermId t : term_ids) {
    TermEntry entry;
    entry.term = t;
    ZR_ASSIGN_OR_RETURN(entry.term_string, vocab.TermOf(t));
    entry.list = deployment_.plan->ListOf(
        t, deployment_.keys->TermPseudonym(entry.term_string));
    terms_.push_back(std::move(entry));
  }

  // Load users: overlapping-but-distinct group subsets, so every worker
  // exercises ACL filtering from a different angle.
  size_t groups_per_user =
      std::min(spec_.groups_per_user, deployment_.groups.size());
  users_.clear();
  user_groups_.clear();
  for (size_t i = 0; i < spec_.num_users; ++i) {
    zerber::UserId user = LoadUserId(i);
    std::vector<crypto::GroupId> member_of;
    for (size_t j = 0; j < groups_per_user; ++j) {
      member_of.push_back(
          deployment_.groups[(i + j) % deployment_.groups.size()]);
    }
    if (deployment_.grant) {
      for (crypto::GroupId g : member_of) {
        ZR_RETURN_IF_ERROR(deployment_.grant(user, g));
      }
    }
    users_.push_back(user);
    user_groups_.push_back(std::move(member_of));
  }

  // Per-worker state: transport, per-user clients, generator, pool share.
  core::ProtocolOptions protocol;
  protocol.initial_response_size = spec_.initial_response_size;
  workers_.clear();
  for (size_t w = 0; w < spec_.workers; ++w) {
    auto state = std::make_unique<WorkerState>(spec_, w, terms_.size());
    state->transport =
        net::MakeTransport(deployment_.transport, deployment_.backend,
                           deployment_.connect_addr);
    if (deployment_.wire_tap != nullptr &&
        deployment_.transport == net::TransportKind::kTcp) {
      // Stream id worker+1: nonzero and stable, so a capture's streams map
      // straight back to workers.
      static_cast<net::TcpTransport*>(state->transport.get())
          ->session()
          .SetWireTap(deployment_.wire_tap, static_cast<uint64_t>(w) + 1);
    }
    for (size_t u = 0; u < users_.size(); ++u) {
      state->plain_clients.push_back(std::make_unique<zerber::ZerberClient>(
          users_[u], deployment_.keys, deployment_.plan,
          state->transport.get(), &vocab));
      state->zr_clients.push_back(std::make_unique<core::ZerberRClient>(
          users_[u], deployment_.keys, deployment_.plan,
          state->transport.get(), &vocab, deployment_.assigner, protocol));
    }
    workers_.push_back(std::move(state));
  }
  for (size_t i = 0; i < deployment_.initial_handles.size(); ++i) {
    workers_[i % workers_.size()]->pool.push_back(
        deployment_.initial_handles[i]);
  }
  return Status::OK();
}

void LoadDriver::ExecuteOp(WorkerState* w, const Op& op, bool measured) {
  WorkerState::ClassCounters& c = w->classes[static_cast<size_t>(op.cls)];
  if (measured) ++c.attempted;

  // Deletes with an empty pool are skipped before any timing: nothing is
  // sent, so they must not contribute a latency sample.
  if (op.cls == OpClass::kDelete && w->pool.empty()) {
    if (measured) ++c.skipped;
    return;
  }

  uint64_t start = measured ? Now() : 0;
  Status status = Status::OK();
  uint64_t elements = 0, bytes = 0, exchanges = 0;

  switch (op.cls) {
    case OpClass::kQueryZerberR: {
      const TermEntry& t = terms_[op.term_rank - 1];
      core::ZerberRClient* client = w->zr_clients[op.user_index].get();
      auto result = [&]() -> StatusOr<core::TopKResult> {
        if (op.extra_term_ranks.empty()) {
          return client->QueryTopK(t.term, spec_.top_k);
        }
        // Multi-term query (spec.terms_per_query_mean > 1): every round
        // sends the next request of each open term as one MultiFetch.
        std::vector<text::TermId> query_terms;
        query_terms.reserve(1 + op.extra_term_ranks.size());
        query_terms.push_back(t.term);
        for (uint64_t rank : op.extra_term_ranks) {
          query_terms.push_back(terms_[rank - 1].term);
        }
        return client->QueryTopKMulti(query_terms, spec_.top_k);
      }();
      if (result.ok()) {
        elements = result->trace.elements_fetched;
        bytes = result->trace.bytes_fetched;
        exchanges = result->trace.requests;
      } else {
        status = result.status();
      }
      break;
    }
    case OpClass::kQueryZerber: {
      const TermEntry& t = terms_[op.term_rank - 1];
      auto result =
          w->plain_clients[op.user_index]->QueryTopK(t.term, spec_.top_k);
      if (result.ok()) {
        elements = result->elements_fetched;
        bytes = result->bytes_fetched;
        exchanges = result->requests;
      } else {
        status = result.status();
      }
      break;
    }
    case OpClass::kInsert: {
      const TermEntry& t = terms_[op.term_rank - 1];
      zerber::UserId user = users_[op.user_index];
      const auto& member_of = user_groups_[op.user_index];
      crypto::GroupId group = member_of[op.group_slot % member_of.size()];
      text::DocId doc = kDocBase + static_cast<uint32_t>(w->index) * kDocStride +
                        w->next_doc_seq++;
      double trs = deployment_.assigner->Assign(t.term, t.term_string, doc,
                                                op.score);
      // Client-side sealing is the one stage that happens before any wire
      // traffic; a sampled op attributes it separately from the transport.
      const bool traced = obs::CurrentTrace().active();
      const uint64_t seal_start = traced ? obs::MonotonicNowNs() : 0;
      auto element = zerber::SealPostingElement(
          zerber::PostingPayload{t.term, doc, op.score}, group, trs,
          deployment_.keys);
      if (traced) {
        obs::RecordSpan(obs::Stage::kClientSeal,
                        obs::MonotonicNowNs() - seal_start, t.list);
      }
      if (!element.ok()) {
        status = element.status();
        break;
      }
      net::InsertRequest request;
      request.user = user;
      request.list = t.list;
      request.element = std::move(element).value();
      auto response = w->transport->Insert(request);
      if (response.ok()) {
        bytes = response->wire_size;
        exchanges = 1;
        w->pool.push_back(PreloadedHandle{user, t.list, response->handle});
      } else {
        status = response.status();
      }
      break;
    }
    case OpClass::kDelete: {
      size_t idx = static_cast<size_t>(op.pool_draw % w->pool.size());
      PreloadedHandle entry = w->pool[idx];
      w->pool[idx] = w->pool.back();
      w->pool.pop_back();
      net::DeleteRequest request;
      request.user = entry.user;
      request.list = entry.list;
      request.handle = entry.handle;
      auto response = w->transport->Delete(request);
      if (response.ok()) {
        bytes = response->wire_size;
        exchanges = 1;
      } else {
        status = response.status();
      }
      break;
    }
  }

  if (!measured) return;
  uint64_t elapsed = Now() - start;
  c.latency.Add(elapsed);
  if (status.ok()) {
    ++c.ok;
    c.elements += elements;
    c.bytes += bytes;
    c.exchanges += exchanges;
  } else {
    ++c.errors;
  }
}

void LoadDriver::WorkerWarmup(WorkerState* w) {
  for (size_t i = 0; i < spec_.warmup_inserts; ++i) {
    Op op = w->generator.NextWarmupInsert();
    ExecuteOp(w, op, /*measured=*/false);
  }
}

void LoadDriver::WorkerMeasured(WorkerState* w, uint64_t start_ns) {
  // Open loop: each worker serves every workers-th slot of the global
  // schedule, staggered by its index, so the offered rate across workers is
  // spec_.target_rate with no shared state.
  const bool open = spec_.mode == LoopMode::kOpen;
  const double per_worker_interval_ns =
      open ? 1e9 * static_cast<double>(spec_.workers) / spec_.target_rate : 0.0;
  double next_issue =
      static_cast<double>(start_ns) +
      per_worker_interval_ns * static_cast<double>(w->index) /
          static_cast<double>(spec_.workers);
  const uint64_t deadline_ns =
      spec_.ops_per_worker == 0 ? start_ns + spec_.duration_ms * 1000000ull : 0;

  for (uint64_t i = 0;; ++i) {
    if (spec_.ops_per_worker != 0) {
      if (i >= spec_.ops_per_worker) break;
    } else if (Now() >= deadline_ns) {
      break;
    }
    if (open) {
      double behind = next_issue - static_cast<double>(Now());
      if (behind > 0) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(static_cast<int64_t>(behind)));
      }
      next_issue += per_worker_interval_ns;
    }
    Op op = w->generator.Next();
    // Trace sampling: op i of this worker runs under a deterministic trace
    // id when selected. The op stream (w->generator) is untouched either
    // way — sampling changes what is observed, never what is issued.
    if (spec_.trace_sample > 0 && i % spec_.trace_sample == 0) {
      obs::TraceContext ctx;
      ctx.trace_id = obs::DeriveTraceId(spec_.seed, w->index, i);
      ctx.span_id = 1;
      obs::ScopedTrace traced(ctx);
      const uint64_t op_start = obs::MonotonicNowNs();
      ExecuteOp(w, op, /*measured=*/true);
      obs::RecordSpan(obs::Stage::kClientOp,
                      obs::MonotonicNowNs() - op_start,
                      static_cast<uint64_t>(op.cls));
    } else {
      ExecuteOp(w, op, /*measured=*/true);
    }
  }
}

void LoadDriver::RunWorkerPhase(bool measured) {
  uint64_t start_ns = measured ? Now() : 0;
  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (auto& worker : workers_) {
    WorkerState* w = worker.get();
    if (measured) {
      threads.emplace_back([this, w, start_ns] { WorkerMeasured(w, start_ns); });
    } else {
      threads.emplace_back([this, w] { WorkerWarmup(w); });
    }
  }
  for (auto& t : threads) t.join();
}

StatusOr<LoadReport> LoadDriver::Run() {
  ZR_RETURN_IF_ERROR(Setup());

  // Phase 1: unmeasured warmup (fills delete pools, touches every code
  // path once). Transport counters are reset afterwards so the report only
  // covers the measured window.
  RunWorkerPhase(/*measured=*/false);
  for (auto& w : workers_) w->transport->ResetStats();

  // Observability window: arm the slow-op log per the spec (0 disables),
  // and drain any residue a previous run in this process left in the
  // global tracer / slow-op rings so the report covers only this window.
  obs::SlowOpLog::Global().set_threshold_ns(spec_.slow_op_threshold_ns);
  (void)obs::Tracer::Global().Drain();
  (void)obs::SlowOpLog::Global().Drain();
  const uint64_t dropped_before = obs::Tracer::Global().dropped();

  zerber::ServerStats before =
      deployment_.server_stats ? deployment_.server_stats() : zerber::ServerStats();
  cluster::RouterStats router_before = deployment_.router_stats
                                           ? deployment_.router_stats()
                                           : cluster::RouterStats();

  // Phase 2: measured.
  uint64_t start_ns = Now();
  RunWorkerPhase(/*measured=*/true);
  uint64_t end_ns = Now();

  LoadReport report;
  report.spec = spec_;
  report.wall_seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  for (size_t c = 0; c < kNumOpClasses; ++c) {
    OpClassReport& out = report.op_classes[c];
    for (auto& w : workers_) {
      const WorkerState::ClassCounters& in = w->classes[c];
      out.attempted += in.attempted;
      out.ok += in.ok;
      out.errors += in.errors;
      out.skipped += in.skipped;
      out.elements += in.elements;
      out.bytes += in.bytes;
      out.exchanges += in.exchanges;
      out.latency.Merge(in.latency);
    }
    report.total_ops += out.ok;
  }
  report.throughput = report.wall_seconds > 0.0
                          ? static_cast<double>(report.total_ops) /
                                report.wall_seconds
                          : 0.0;
  report.transport_kind = net::TransportKindName(deployment_.transport);
  for (auto& w : workers_) {
    report.transport += w->transport->stats();
    if (deployment_.transport == net::TransportKind::kTcp) {
      report.socket +=
          static_cast<net::TcpTransport*>(w->transport.get())->socket_stats();
    }
  }
  if (deployment_.server_stats) {
    report.server = deployment_.server_stats() - before;
  }
  if (deployment_.router_stats) {
    report.cluster = deployment_.router_stats() - router_before;
  }

  report.obs =
      BuildObsReport(obs::Tracer::Global().Drain(),
                     obs::SlowOpLog::Global().Drain(),
                     obs::Tracer::Global().dropped() - dropped_before);

  // The harness's own transfer accounting on the scrape plane: the load
  // side of TransportStats becomes gauges, so a scrape of this process
  // sees client traffic next to the server counters.
  for (const auto& f : net::TransportStats::Fields()) {
    obs::Registry::Global()
        .GetGauge(std::string("zr_load_transport_") + f.name)
        ->Set(report.transport.*f.member);
  }
  return report;
}

Deployment DeploymentFromPipeline(core::Pipeline* pipeline) {
  Deployment d;
  d.transport = pipeline->options.transport;
  if (pipeline->tcp_server != nullptr) {
    d.connect_addr = pipeline->tcp_server->address();
  } else {
    d.connect_addr = pipeline->options.connect_addr;
  }
  d.keys = pipeline->keys.get();
  d.plan = &pipeline->plan;
  d.corpus = &pipeline->corpus;
  d.assigner = pipeline->assigner.get();

  std::set<crypto::GroupId> groups;
  for (const auto& doc : pipeline->corpus.documents()) {
    groups.insert(doc.group());
  }
  d.groups.assign(groups.begin(), groups.end());

  // Every backend a pipeline deploys (in-process shards, durable shards or
  // shard processes) is a net::ShardRouter; only the cluster adds
  // fault-handling counters. A client-only pipeline deploys none.
  net::ShardRouter* shards = pipeline->sharded.get();
  if (pipeline->durable) shards = pipeline->durable.get();
  if (pipeline->router) {
    cluster::RouterService* router = pipeline->router.get();
    shards = router;
    d.router_stats = [router] { return router->router_stats(); };
  }
  if (shards == nullptr) return d;
  d.backend = shards;
  d.grant = [shards](zerber::UserId user, crypto::GroupId group) {
    return shards->GrantMembership(user, group);
  };
  d.server_stats = [shards] { return shards->stats(); };
  return d;
}

}  // namespace zr::load
