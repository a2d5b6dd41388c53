#include "workload.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench_math.h"
#include "core/zerber_r_client.h"
#include "load/op_generator.h"
#include "obs/trace.h"
#include "proc_stats.h"
#include "spans.h"
#include "util/mutex.h"
#include "util/random.h"
#include "zerber/posting_element.h"
#include "zerber/zerber_client.h"

namespace zr::perfbench {

namespace {

using load::OpClass;

// Why the workloads look the way they do is recorded in
// perfbench/DESIGN.md; the numbers here are that design.
constexpr WorkloadSpec kWorkloads[] = {
    {"search", Backend::kSearch, /*rate=*/400.0, /*latency_limit_ms=*/50.0,
     /*mix=*/{0.9, 0.1, 0.0, 0.0}, /*seed_handles=*/0,
     /*snapshot_threshold_bytes=*/0},
    {"mixed", Backend::kMixed, /*rate=*/250.0, /*latency_limit_ms=*/80.0,
     /*mix=*/{0.45, 0.15, 0.2, 0.2}, /*seed_handles=*/1000,
     /*snapshot_threshold_bytes=*/12 << 10},
    {"cluster", Backend::kCluster, /*rate=*/250.0, /*latency_limit_ms=*/80.0,
     /*mix=*/{0.45, 0.15, 0.2, 0.2}, /*seed_handles=*/1000,
     /*snapshot_threshold_bytes=*/12 << 10},
};

constexpr size_t kTopK = 10;
constexpr double kTermsPerQuery = 2.4;  // the paper's query log
constexpr double kZipf = 0.9;
constexpr size_t kMaxLanes = 4;  // generator threads, one connection each
constexpr size_t kSetupRepeats = 7;
constexpr double kWarmupSeconds = 1.0;
constexpr double kRateProbeSeconds = 1.5;
constexpr uint64_t kTraceEvery = 2;  // traced window: every other op
constexpr size_t kSealSample = 2000;  // seal_us where no op inserts

/// Synthetic doc ids of churn inserts: far above any corpus document.
constexpr text::DocId kChurnDocBase = 0x40000000u;

constexpr size_t kOpClasses = load::kNumOpClasses;
constexpr const char* kOpNames[kOpClasses] = {"query", "plain_query",
                                              "insert", "delete"};

/// The tail percentile reported per op class: the highest one a window
/// supports with ten samples beyond it. Zerber+R queries are the bulk of
/// every workload; the other classes are a tenth to a fifth of the ops.
double TailPercentile(OpClass cls) {
  return cls == OpClass::kQueryZerberR ? 99.0 : 95.0;
}
std::string TailSuffix(OpClass cls) {
  return cls == OpClass::kQueryZerberR ? "_p99_ms" : "_p95_ms";
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;  ///< raw samples behind the value; 0 = a ratio/count
  double percentile = 0.0;  ///< nonzero for a percentile metric
};

class MetricSet {
 public:
  void Add(std::string name, std::string unit, double value,
           size_t samples = 0) {
    metrics_.push_back({std::move(name), std::move(unit), value, samples, 0});
  }

  /// The p-th percentile of `samples`, with its count.
  void AddPercentile(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples, double p) {
    metrics_.push_back(
        {name, unit, Percentile(samples, p), samples.size(), p});
  }

  void Print(FILE* f, const char* title) const {
    std::fprintf(f, "%s\n", title);
    for (const Metric& m : metrics_) {
      std::fprintf(f, "  %-34s %14.4f %-6s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.percentile > 0) {
        std::fprintf(f, "  n=%zu", m.samples);
        if (m.samples == 0) {
          std::fprintf(f, " (no such ops on this workload)");
        } else if (!PercentileSupported(m.samples, m.percentile)) {
          std::fprintf(f, " (%zu beyond p%g; highest supported: p%g)",
                      SamplesBeyond(m.samples, m.percentile), m.percentile,
                      HighestSupportedPercentile(m.samples));
        } else {
          std::fprintf(f, " (%zu beyond)",
                       SamplesBeyond(m.samples, m.percentile));
        }
      } else if (m.samples > 0) {
        std::fprintf(f, "  n=%zu", m.samples);
      }
      std::fprintf(f, "\n");
    }
  }

  /// `"name": {"value": v, "unit": u, "samples": n, "supported": b}`, ...
  /// A value that is not a finite number is written as null.
  std::string Json() const {
    std::string out;
    char value[32];
    char buf[512];
    for (const Metric& m : metrics_) {
      bool supported = m.percentile == 0 || m.samples == 0 ||
                       PercentileSupported(m.samples, m.percentile);
      if (std::isfinite(m.value)) {
        std::snprintf(value, sizeof value, "%.17g", m.value);
      } else {
        std::snprintf(value, sizeof value, "null");
      }
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %s, \"unit\": \"%s\", "
                    "\"samples\": %zu, \"supported\": %s}",
                    out.empty() ? "" : ", ", m.name.c_str(), value,
                    m.unit.c_str(), m.samples, supported ? "true" : "false");
      out += buf;
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Run state
// ---------------------------------------------------------------------------

/// Popularity-ordered term table: Zipf rank 1 is the most frequent term.
struct TermEntry {
  text::TermId term = 0;
  std::string term_string;
  zerber::MergedListId list = 0;
};

struct PoolEntry {
  zerber::UserId user = 0;
  zerber::MergedListId list = 0;
  uint64_t handle = 0;
};

/// Handles of churn elements deletes may remove. Shared by every lane: an
/// insert adds its acked handle, a delete takes one.
class HandlePool {
 public:
  void Push(const PoolEntry& entry) {
    MutexLock lock(mu_);
    entries_.push_back(entry);
  }
  std::optional<PoolEntry> Take(uint64_t draw) {
    MutexLock lock(mu_);
    if (entries_.empty()) return std::nullopt;
    size_t i = static_cast<size_t>(draw % entries_.size());
    PoolEntry entry = entries_[i];
    entries_[i] = entries_.back();
    entries_.pop_back();
    return entry;
  }
  void Clear() {
    MutexLock lock(mu_);
    entries_.clear();
  }

 private:
  Mutex mu_;
  std::vector<PoolEntry> entries_ ZR_GUARDED_BY(mu_);
};

/// One generator thread's connection and clients.
struct Lane {
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<TimedService> exchange;  // traced runs only
  net::ZerberService* service = nullptr;   // what the lane's clients call
  std::vector<std::unique_ptr<zerber::ZerberClient>> plain;
  std::vector<std::unique_ptr<core::ZerberRClient>> zr;
  uint64_t cpu_ns = 0;  // thread CPU over the last window
};

/// What one op returned.
struct OpRecord {
  bool ok = false;
  Status error;           // why the op failed
  bool skipped = false;   // delete with an empty pool
  uint64_t trace_id = 0;  // nonzero when the op was traced
  uint64_t span_id = 0;
  uint64_t elements = 0;  // elements opened
  uint64_t bytes = 0;     // payload bytes received (queries)
  uint64_t requests = 0;  // round trips
  uint64_t kept = 0;      // top-k results returned
  uint64_t seal_ns = 0;   // inserts: SealPostingElement
  uint64_t sealed_bytes = 0;
};

/// Counters read around a window.
struct Counters {
  zerber::ServerStats server;
  net::TcpServerStats tcp;
  std::vector<net::TcpServerStats> loops;
  cluster::RouterStats router;
  ProcCounters self;
  ProcCounters shards;
  uint64_t peak_rss_kb = 0;  // this process plus shard processes
  uint64_t snapshot_epochs = 0;
  int64_t elements = -1;
};

struct Window {
  std::vector<load::Op> ops;
  std::vector<OpTiming> timings;
  std::vector<OpRecord> records;
  Counters before;
  Counters after;
  uint64_t lane_cpu_ns = 0;
  net::TcpSocketStats sockets;  // summed over lanes
  net::TransportStats payload;  // summed over lanes
  std::vector<Span> spans;
  std::vector<obs::SpanRecord> program_spans;
  uint64_t spans_dropped = 0;
  bool aborted = false;

  size_t Attempted() const {
    size_t n = 0;
    for (const OpTiming& t : timings) n += t.ran ? 1 : 0;
    return n;
  }
  size_t Failed() const {
    size_t n = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      n += timings[i].ran && !records[i].ok ? 1 : 0;
    }
    return n;
  }
  /// Due-time latencies (ms) of class `cls`; a failed op counts as
  /// infinitely late.
  std::vector<double> Latencies(OpClass cls) const {
    std::vector<double> out;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!timings[i].ran || ops[i].cls != cls) continue;
      out.push_back(records[i].ok ? Ms(timings[i].LatencyNs())
                                  : std::numeric_limits<double>::infinity());
    }
    return out;
  }
  /// CPU of this process and the shard processes per completed op.
  double CpuUsPerOp() const {
    ProcCounters self = after.self - before.self;
    ProcCounters shards = after.shards - before.shards;
    return Ratio(Us(self.cpu_ns + shards.cpu_ns),
                 static_cast<double>(Attempted() - Failed()));
  }
  std::vector<double> AllLatencies() const {
    std::vector<double> out;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!timings[i].ran) continue;
      out.push_back(records[i].ok ? Ms(timings[i].LatencyNs())
                                  : std::numeric_limits<double>::infinity());
    }
    return out;
  }
};

Counters Snapshot(Deployment& d) {
  Counters c;
  c.server = d.server_stats();
  if (net::TcpServer* server = d.tcp_server()) {
    c.tcp = server->stats();
    c.loops = server->per_loop_stats();
  }
  if (cluster::RouterService* router = d.router()) {
    c.router = router->router_stats();
  }
  c.peak_rss_kb = PeakRssKb(0);
  for (pid_t pid : d.shard_pids()) c.peak_rss_kb += PeakRssKb(pid);
  c.snapshot_epochs = d.SnapshotEpochs();
  c.elements = d.IndexElements();
  return c;
}

/// Single-term top-k equal to the plaintext baseline, modulo ties at the
/// k-th score: the scores agree rank by rank, and every document scoring
/// above the k-th score appears in both.
bool SameTopK(const std::vector<index::ScoredDoc>& expected,
              const std::vector<index::ScoredDoc>& got) {
  if (expected.size() != got.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    double tolerance = 1e-12 * std::max(1.0, std::fabs(expected[i].score));
    if (std::fabs(expected[i].score - got[i].score) > tolerance) return false;
  }
  if (expected.empty()) return true;
  const double kth = expected.back().score;
  std::vector<text::DocId> a, b;
  for (const auto& d : expected) {
    if (d.score > kth) a.push_back(d.doc_id);
  }
  for (const auto& d : got) {
    if (d.score > kth) b.push_back(d.doc_id);
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// The k-th score of `term` is shared with the next document, so which of
/// them a top-k keeps is arbitrary.
bool TiedAtK(const index::InvertedIndex& baseline, text::TermId term,
             size_t k) {
  std::vector<index::ScoredDoc> top = baseline.TopK(term, k + 1);
  return top.size() > k && top[k - 1].score == top[k].score;
}

/// What a multi-term Zerber+R query must return given each term's top-k:
/// the documents by summed score, best first, k of them.
std::vector<index::ScoredDoc> MergedTopK(
    const std::vector<std::vector<index::ScoredDoc>>& per_term, size_t k) {
  std::unordered_map<text::DocId, double> sum;
  for (const auto& top : per_term) {
    for (const index::ScoredDoc& d : top) sum[d.doc_id] += d.score;
  }
  std::vector<index::ScoredDoc> out;
  for (const auto& [doc, score] : sum) out.push_back({doc, score});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.score != b.score ? a.score > b.score : a.doc_id < b.doc_id;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

/// An op that fails at the workload's fixed rate means the program is
/// broken, so it fails the run.
Status NoFailedOps(const Window& w) {
  for (size_t i = 0; i < w.records.size(); ++i) {
    if (w.timings[i].ran && !w.records[i].ok) {
      return Status::Internal(
          std::to_string(w.Failed()) + " of " + std::to_string(w.Attempted()) +
          " ops failed at the fixed rate; the first: " +
          w.records[i].error.ToString());
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options) {}

  int Run();

 private:
  Status Setup();
  Status BuildTerms();
  StatusOr<net::InsertRequest> ChurnInsert(const load::Op& op,
                                           uint64_t* seal_ns);
  Status SeedPool();
  Status BuildLanes();
  Status CheckProbes();
  static Status CheckFraming(const net::TcpSocketStats& s,
                             const net::TransportStats& t);
  StatusOr<Window> RunWindow(double rate, double seconds, uint64_t salt,
                             bool traced, uint64_t abort_late_ns = 0);
  void Execute(Lane& lane, Window& w, size_t i, bool traced, uint64_t salt);
  void ExecuteOp(Lane& lane, const load::Op& op, OpRecord* r);
  bool RateProbe(double rate, uint64_t salt, Status* failure);

  double FindMaxRate(Status* failure);
  void EndToEndMetrics(const Window& w, MetricSet* out);
  void LayerMetrics(const Window& untraced, const Window& traced,
                    double max_rate, MetricSet* out);
  double SealSampleUs();

  void PrintResult(bool correct, size_t attempted, size_t failed,
                   const MetricSet& metrics) const;

  const WorkloadSpec& spec_;
  RunOptions options_;
  SpanLog spans_;
  std::vector<double> setup_seconds_;
  std::unique_ptr<Deployment> deployment_;
  std::vector<TermEntry> terms_;
  std::vector<text::TermId> probe_terms_;
  std::vector<std::vector<text::TermId>> multi_probes_;
  HandlePool pool_;
  std::atomic<uint32_t> next_doc_{0};
  int64_t initial_elements_ = 0;  // corpus + seed, for drift on cluster
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<net::Transport> probe_transport_;
  std::unique_ptr<core::ZerberRClient> probe_zr_;
  std::unique_ptr<zerber::ZerberClient> probe_plain_;
  std::vector<Lane*> tcp_lanes_;
};

Status Bench::Setup() {
  // Set-up is repeated and its median reported, so that a change which
  // moves work into set-up shows up as setup_s. Each repetition starts
  // from nothing; the last deployment is the one measured.
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    deployment_.reset();
    pool_.Clear();
    std::error_code ec;
    std::filesystem::remove_all(options_.work_dir, ec);
    std::filesystem::create_directories(options_.work_dir, ec);
    if (ec) return Status::Internal("cannot create " + options_.work_dir);
    DeploymentOptions d;
    d.backend = spec_.backend;
    d.data_dir = options_.work_dir + "/store";
    d.shard_server = options_.shard_server;
    d.snapshot_threshold_bytes = spec_.snapshot_threshold_bytes;
    d.spans = options_.trace ? &spans_ : nullptr;
    uint64_t start = SteadyClock().NowNs();
    ZR_ASSIGN_OR_RETURN(deployment_, Deployment::Build(d));
    uint64_t elapsed = SteadyClock().NowNs() - start;
    // The benchmark's own term table is not the program's set-up.
    if (terms_.empty()) ZR_RETURN_IF_ERROR(BuildTerms());
    start = SteadyClock().NowNs();
    ZR_RETURN_IF_ERROR(SeedPool());
    ZR_RETURN_IF_ERROR(deployment_->Serve());
    elapsed += SteadyClock().NowNs() - start;
    setup_seconds_.push_back(static_cast<double>(elapsed) / 1e9);
    // The traced run reports no set-up time; one deployment suffices.
    if (options_.trace) break;
  }
  return Status::OK();
}

Status Bench::BuildTerms() {
  core::Pipeline& p = deployment_->pipeline();
  const text::Vocabulary& vocab = p.corpus.vocabulary();
  std::vector<text::TermId> ids;
  for (text::TermId t : vocab.AllTermIds()) {
    if (p.corpus.DocumentFrequency(t) > 0) ids.push_back(t);
  }
  std::sort(ids.begin(), ids.end(), [&](text::TermId a, text::TermId b) {
    uint64_t da = p.corpus.DocumentFrequency(a);
    uint64_t db = p.corpus.DocumentFrequency(b);
    return da != db ? da > db : a < b;
  });
  for (text::TermId t : ids) {
    TermEntry e;
    e.term = t;
    ZR_ASSIGN_OR_RETURN(e.term_string, vocab.TermOf(t));
    e.list = p.plan.ListOf(t, p.keys->TermPseudonym(e.term_string));
    terms_.push_back(std::move(e));
  }
  // Probe terms: popular terms with a trained RSTF (their TRS order is
  // the score order), plus rare terms whose whole list fits in one top-k.
  size_t popular = 0, rare = 0;
  for (const TermEntry& e : terms_) {
    if (popular < 6 && p.assigner->HasRstf(e.term)) {
      probe_terms_.push_back(e.term);
      ++popular;
    }
  }
  for (auto it = terms_.rbegin(); it != terms_.rend() && rare < 2; ++it) {
    probe_terms_.push_back(it->term);
    ++rare;
  }
  if (popular < 6) return Status::FailedPrecondition("too few probe terms");
  // Multi-term probes (one MultiFetch each) from probe terms whose own
  // top-k is not tied at the k-th score, so their merge is unique.
  std::vector<text::TermId> untied;
  for (text::TermId t : probe_terms_) {
    if (!TiedAtK(*p.baseline, t, kTopK)) untied.push_back(t);
  }
  for (size_t i = 0; i + 1 < untied.size(); i += 2) {
    multi_probes_.push_back({untied[i], untied[i + 1]});
  }
  if (untied.size() >= 3) {
    multi_probes_.push_back({untied[0], untied[1], untied[2]});
  }
  if (multi_probes_.empty()) {
    return Status::FailedPrecondition("too few untied probe terms");
  }
  return Status::OK();
}

StatusOr<net::InsertRequest> Bench::ChurnInsert(const load::Op& op,
                                               uint64_t* seal_ns) {
  core::Pipeline& p = deployment_->pipeline();
  const TermEntry& term = terms_[op.term_rank - 1];
  const text::DocId doc = kChurnDocBase + next_doc_.fetch_add(1);
  const double trs =
      p.assigner->Assign(term.term, term.term_string, doc, op.score);
  const uint64_t start = obs::MonotonicNowNs();
  ZR_ASSIGN_OR_RETURN(
      zerber::EncryptedPostingElement element,
      zerber::SealPostingElement(
          zerber::PostingPayload{term.term, doc, op.score},
          deployment_->churn_group(), trs, p.keys.get()));
  *seal_ns = obs::MonotonicNowNs() - start;
  net::InsertRequest request;
  request.user = deployment_->load_users()[op.user_index];
  request.list = term.list;
  request.element = std::move(element);
  return request;
}

Status Bench::SeedPool() {
  if (spec_.seed_handles == 0) return Status::OK();
  load::LoadSpec ls;
  ls.seed = options_.seed ^ 0x5EEDull;
  ls.num_users = deployment_->load_users().size();
  ls.groups_per_user = 1;
  ls.zipf_s = kZipf;
  const size_t threads = kMaxLanes;
  std::vector<Status> status(threads);
  std::vector<std::thread> workers;
  // The seed goes in with the bulk load, before the deployment serves.
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      load::OpGenerator gen(ls, t, terms_.size());
      for (size_t i = t; i < spec_.seed_handles; i += threads) {
        uint64_t seal_ns = 0;
        auto request = ChurnInsert(gen.NextWarmupInsert(), &seal_ns);
        if (!request.ok()) {
          status[t] = request.status();
          return;
        }
        auto ack = deployment_->backend()->Insert(*request);
        if (!ack.ok()) {
          status[t] = ack.status();
          return;
        }
        pool_.Push({request->user, request->list, ack->handle});
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const Status& s : status) ZR_RETURN_IF_ERROR(s);
  return Status::OK();
}

Status Bench::BuildLanes() {
  core::Pipeline& p = deployment_->pipeline();
  core::ProtocolOptions protocol;
  protocol.initial_response_size = kTopK;
  size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  size_t lanes = std::min(kMaxLanes, hardware);
  for (size_t l = 0; l < lanes; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->transport = deployment_->NewTransport();
    lane->service = lane->transport.get();
    if (options_.trace) {
      lane->exchange = std::make_unique<TimedService>(
          lane->transport.get(), SpanKind::kExchange, &spans_);
      lane->service = lane->exchange.get();
    }
    for (zerber::UserId user : deployment_->load_users()) {
      lane->plain.push_back(std::make_unique<zerber::ZerberClient>(
          user, p.keys.get(), &p.plan, lane->service,
          &p.corpus.vocabulary()));
      lane->zr.push_back(std::make_unique<core::ZerberRClient>(
          user, p.keys.get(), &p.plan, lane->service,
          &p.corpus.vocabulary(), p.assigner.get(), protocol));
    }
    if (deployment_->tcp_server() != nullptr) tcp_lanes_.push_back(lane.get());
    lanes_.push_back(std::move(lane));
  }
  // The correctness probes run as the pipeline's user, who holds every
  // corpus group but not the churn group.
  probe_transport_ = deployment_->NewTransport();
  probe_zr_ = std::make_unique<core::ZerberRClient>(
      p.user, p.keys.get(), &p.plan, probe_transport_.get(),
      &p.corpus.vocabulary(), p.assigner.get(), protocol);
  probe_plain_ = std::make_unique<zerber::ZerberClient>(
      p.user, p.keys.get(), &p.plan, probe_transport_.get(),
      &p.corpus.vocabulary());
  return Status::OK();
}

Status Bench::CheckProbes() {
  core::Pipeline& p = deployment_->pipeline();
  probe_transport_->ResetStats();
  for (text::TermId term : probe_terms_) {
    std::vector<index::ScoredDoc> expected = p.baseline->TopK(term, kTopK);
    ZR_ASSIGN_OR_RETURN(core::TopKResult zr, probe_zr_->QueryTopK(term, kTopK));
    ZR_ASSIGN_OR_RETURN(zerber::ClientQueryResult plain,
                        probe_plain_->QueryTopK(term, kTopK));
    if (!SameTopK(expected, zr.results)) {
      return Status::Internal("Zerber+R top-k differs from the baseline for "
                              "probe term " + std::to_string(term));
    }
    if (!SameTopK(expected, plain.results)) {
      return Status::Internal("plain top-k differs from the baseline for "
                              "probe term " + std::to_string(term));
    }
  }
  for (const std::vector<text::TermId>& query : multi_probes_) {
    std::vector<std::vector<index::ScoredDoc>> per_term;
    for (text::TermId term : query) {
      per_term.push_back(p.baseline->TopK(term, kTopK));
    }
    ZR_ASSIGN_OR_RETURN(core::TopKResult zr,
                        probe_zr_->QueryTopKMulti(query, kTopK));
    if (!SameTopK(MergedTopK(per_term, kTopK), zr.results)) {
      return Status::Internal("multi-term Zerber+R top-k differs from the "
                              "merged baseline for probe term " +
                              std::to_string(query[0]) + " and others");
    }
  }
  if (auto* tcp = dynamic_cast<net::TcpTransport*>(probe_transport_.get())) {
    ZR_RETURN_IF_ERROR(CheckFraming(tcp->socket_stats(), tcp->stats()));
  }
  return Status::OK();
}

/// socket bytes = payload + 4 * frames + extension bytes, both directions.
Status Bench::CheckFraming(const net::TcpSocketStats& s,
                           const net::TransportStats& t) {
  bool up = s.bytes_up ==
            t.bytes_up + net::kFrameHeaderBytes * s.frames_up + s.ext_bytes_up;
  bool down = s.bytes_down == t.bytes_down +
                                  net::kFrameHeaderBytes * s.frames_down +
                                  s.ext_bytes_down;
  if (!up || !down) return Status::Internal("framing identity violated");
  return Status::OK();
}

void Bench::ExecuteOp(Lane& lane, const load::Op& op, OpRecord* r) {
  switch (op.cls) {
    case OpClass::kQueryZerberR: {
      std::vector<text::TermId> query = {terms_[op.term_rank - 1].term};
      for (uint64_t rank : op.extra_term_ranks) {
        query.push_back(terms_[rank - 1].term);
      }
      core::ZerberRClient& client = *lane.zr[op.user_index];
      auto result = query.size() == 1 ? client.QueryTopK(query[0], kTopK)
                                      : client.QueryTopKMulti(query, kTopK);
      if (!result.ok()) {
        r->error = result.status();
        return;
      }
      r->ok = true;
      r->elements = result->trace.elements_fetched;
      r->bytes = result->trace.bytes_fetched;
      r->requests = result->trace.requests;
      r->kept = result->results.size();
      return;
    }
    case OpClass::kQueryZerber: {
      auto result = lane.plain[op.user_index]->QueryTopK(
          terms_[op.term_rank - 1].term, kTopK);
      if (!result.ok()) {
        r->error = result.status();
        return;
      }
      r->ok = true;
      r->elements = result->elements_fetched;
      r->bytes = result->bytes_fetched;
      r->requests = result->requests;
      r->kept = result->results.size();
      return;
    }
    case OpClass::kInsert: {
      auto request = ChurnInsert(op, &r->seal_ns);
      if (!request.ok()) {
        r->error = request.status();
        return;
      }
      r->sealed_bytes = request->element.WireSize();
      auto ack = lane.service->Insert(*request);
      if (!ack.ok()) {
        r->error = ack.status();
        return;
      }
      pool_.Push({request->user, request->list, ack->handle});
      r->ok = true;
      r->requests = 1;
      return;
    }
    case OpClass::kDelete: {
      std::optional<PoolEntry> entry = pool_.Take(op.pool_draw);
      if (!entry) {
        r->skipped = true;
        return;
      }
      net::DeleteRequest request;
      request.user = entry->user;
      request.list = entry->list;
      request.handle = entry->handle;
      auto ack = lane.service->Delete(request);
      if (!ack.ok()) {
        r->error = ack.status();
        return;
      }
      r->ok = true;
      r->requests = 1;
      return;
    }
  }
}

void Bench::Execute(Lane& lane, Window& w, size_t i, bool traced,
                    uint64_t salt) {
  const load::Op& op = w.ops[i];
  OpRecord& r = w.records[i];
  if (!traced || i % kTraceEvery != 0) {
    ExecuteOp(lane, op, &r);
    return;
  }
  Span span;
  span.trace_id = obs::DeriveTraceId(options_.seed, salt, i);
  span.span_id = spans_.NewSpanId();
  span.kind = SpanKind::kOp;
  span.cls = static_cast<uint8_t>(op.cls);
  obs::ScopedTrace scope(obs::TraceContext{span.trace_id, span.span_id});
  span.start_ns = obs::MonotonicNowNs();
  ExecuteOp(lane, op, &r);
  span.end_ns = obs::MonotonicNowNs();
  spans_.Add(span);
  r.trace_id = span.trace_id;
  r.span_id = span.span_id;
}

StatusOr<Window> Bench::RunWindow(double rate, double seconds, uint64_t salt,
                                  bool traced, uint64_t abort_late_ns) {
  Window w;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));

  // The op stream and its Poisson schedule derive from the seed and the
  // window's salt alone, so the same seed offers the same inputs.
  load::LoadSpec ls;
  ls.seed = options_.seed * 0x9E3779B97F4A7C15ull + salt;
  ls.mix = spec_.mix;
  ls.zipf_s = kZipf;
  ls.top_k = kTopK;
  ls.initial_response_size = kTopK;
  ls.terms_per_query_mean = kTermsPerQuery;
  ls.num_users = deployment_->load_users().size();
  ls.groups_per_user = 1;
  load::OpGenerator gen(ls, 0, terms_.size());
  Rng arrivals(ls.seed ^ 0xA11CEull);
  std::vector<uint64_t> due(n);
  double offset_ns = 0.0;
  w.ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    w.ops.push_back(gen.Next());
    offset_ns += -std::log(1.0 - arrivals.NextDouble()) * 1e9 / rate;
    due[i] = static_cast<uint64_t>(offset_ns);
  }

  for (auto& lane : lanes_) lane->transport->ResetStats();
  if (traced) {
    (void)obs::Tracer::Global().Drain();
    (void)spans_.Take();
  }
  const uint64_t dropped_before = obs::Tracer::Global().dropped();
  w.before = Snapshot(*deployment_);
  // Process counters are read last before the window and first after it,
  // so the stats scrapes around it are not charged to the window.
  w.before.self = SampleSelf();
  w.before.shards = SamplePids(deployment_->shard_pids());
  // A short lead, so the workers are running before the first op is due.
  const uint64_t start = SteadyClock().NowNs() + 5000000;
  for (uint64_t& d : due) d += start;
  ScheduleRunner runner(std::move(due), &SteadyClock(), abort_late_ns);
  w.records.resize(n);
  std::vector<std::thread> threads;
  for (auto& lane : lanes_) {
    Lane* l = lane.get();
    threads.emplace_back([&, l] {
      const uint64_t cpu = ThreadCpuNs();
      runner.RunWorker([&](size_t i) { Execute(*l, w, i, traced, salt); });
      l->cpu_ns = ThreadCpuNs() - cpu;
    });
  }
  for (auto& t : threads) t.join();
  const ProcCounters self_after = SampleSelf();
  const ProcCounters shards_after = SamplePids(deployment_->shard_pids());
  w.after = Snapshot(*deployment_);
  w.after.self = self_after;
  w.after.shards = shards_after;
  w.timings = runner.timings();
  w.aborted = runner.aborted();
  for (auto& lane : lanes_) {
    w.lane_cpu_ns += lane->cpu_ns;
    const net::TransportStats& t = lane->transport->stats();
    w.payload.exchanges += t.exchanges;
    w.payload.bytes_up += t.bytes_up;
    w.payload.bytes_down += t.bytes_down;
  }
  for (Lane* lane : tcp_lanes_) {
    const net::TcpSocketStats& s =
        static_cast<net::TcpTransport*>(lane->transport.get())->socket_stats();
    w.sockets.bytes_up += s.bytes_up;
    w.sockets.bytes_down += s.bytes_down;
    w.sockets.frames_up += s.frames_up;
    w.sockets.frames_down += s.frames_down;
    w.sockets.reconnects += s.reconnects;
    w.sockets.ext_bytes_up += s.ext_bytes_up;
    w.sockets.ext_bytes_down += s.ext_bytes_down;
  }
  if (traced) {
    w.spans = spans_.Take();
    w.program_spans = obs::Tracer::Global().Drain();
  }
  w.spans_dropped = obs::Tracer::Global().dropped() - dropped_before;
  for (const OpRecord& r : w.records) {
    if (r.skipped) return Status::Internal("a delete found no handle to take");
  }
  if (!tcp_lanes_.empty()) {
    ZR_RETURN_IF_ERROR(CheckFraming(w.sockets, w.payload));
  }
  if (w.after.tcp.protocol_errors != w.before.tcp.protocol_errors) {
    return Status::Internal("the server counted protocol errors");
  }
  return w;
}

bool Bench::RateProbe(double rate, uint64_t salt, Status* failure) {
  if (!failure->ok()) return false;
  const double limit_ms = spec_.latency_limit_ms;
  // A probe far past capacity is cut short once ops start this late.
  const auto abort_late_ns = static_cast<uint64_t>(4 * limit_ms * 1e6);
  Status probes = CheckProbes();
  if (!probes.ok()) {
    *failure = probes;
    return false;
  }
  auto w = RunWindow(rate, kRateProbeSeconds, salt, /*traced=*/false,
                     abort_late_ns);
  if (!w.ok()) {
    *failure = w.status();
    return false;
  }
  if (w->aborted || w->Failed() > 0) {
    std::printf("  rate probe %8.1f ops/s: %s -> fail\n", rate,
                w->aborted ? "ops started too late, cut short" : "ops failed");
    return false;
  }
  // No growing backlog: ops at the end of the window start no later, in
  // the median, than a quarter of the limit past those at its start.
  const size_t quarter = std::max<size_t>(1, w->timings.size() / 4);
  std::vector<double> first, last;
  for (size_t i = 0; i < quarter; ++i) {
    first.push_back(Ms(w->timings[i].LateNs()));
    last.push_back(Ms(w->timings[w->timings.size() - 1 - i].LateNs()));
  }
  const double growth = Percentile(last, 50.0) - Percentile(first, 50.0);
  const double p99 = Percentile(w->AllLatencies(), 99.0);
  const bool ok = p99 <= limit_ms && growth <= limit_ms / 4;
  std::printf("  rate probe %8.1f ops/s: p99 %8.3f ms, backlog growth "
              "%7.3f ms -> %s\n",
              rate, p99, growth, ok ? "pass" : "fail");
  return ok;
}

double Bench::FindMaxRate(Status* failure) {
  RateSearchOptions search;
  search.start_rate = 2.0 * spec_.rate;
  search.growth = 1.6;
  search.resolution = 0.08;
  search.min_rate = spec_.rate / 4;
  search.max_rate = 20.0 * spec_.rate;
  search.max_probes = 7;
  uint64_t salt = 100;
  return perfbench::FindMaxRate(
      search, [&](double rate) { return RateProbe(rate, salt++, failure); },
      nullptr);
}

void Bench::EndToEndMetrics(const Window& w, MetricSet* out) {
  out->Add("setup_s", "s", Percentile(setup_seconds_, 50.0),
           setup_seconds_.size());
  for (size_t c = 0; c < kOpClasses; ++c) {
    std::vector<double> lat = w.Latencies(static_cast<OpClass>(c));
    std::string base = kOpNames[c];
    out->AddPercentile(base + "_p50_ms", "ms", lat, 50.0);
    out->AddPercentile(base + TailSuffix(static_cast<OpClass>(c)), "ms", lat,
                       TailPercentile(static_cast<OpClass>(c)));
  }
  out->Add("cpu_us_per_op", "us", w.CpuUsPerOp());
  double kb = 0, trips = 0;
  size_t queries = 0;
  for (size_t i = 0; i < w.ops.size(); ++i) {
    if (w.ops[i].cls != OpClass::kQueryZerberR || !w.records[i].ok) continue;
    kb += static_cast<double>(w.records[i].bytes) / 1024.0;
    trips += static_cast<double>(w.records[i].requests);
    ++queries;
  }
  out->Add("query_kb", "KB", Ratio(kb, static_cast<double>(queries)), queries);
  out->Add("query_round_trips", "count",
           Ratio(trips, static_cast<double>(queries)), queries);
  out->Add("rss_mb", "MB",
           static_cast<double>(w.after.peak_rss_kb) / 1024.0);
  out->Add("failed_share", "ratio",
           Ratio(static_cast<double>(w.Failed()),
                 static_cast<double>(w.Attempted())),
           w.Attempted());
}

double Bench::SealSampleUs() {
  // Where no op inserts, the benchmark seals a sample of corpus postings
  // itself: the per-element cost set-up pays for the whole index.
  core::Pipeline& p = deployment_->pipeline();
  std::vector<double> us;
  size_t n = 0;
  for (const text::Document& doc : p.corpus.documents()) {
    for (const auto& [term, tf] : doc.terms()) {
      if (n++ >= kSealSample) break;
      double score = doc.RelevanceScore(term);
      const uint64_t start = obs::MonotonicNowNs();
      auto element = zerber::SealPostingElement(
          zerber::PostingPayload{term, doc.id(), score}, doc.group(), score,
          p.keys.get());
      us.push_back(Us(obs::MonotonicNowNs() - start));
      if (!element.ok()) return 0.0;
    }
    if (n >= kSealSample) break;
  }
  return Percentile(us, 50.0);
}

void Bench::LayerMetrics(const Window& u, const Window& t, double max_rate,
                         MetricSet* out) {
  // --- bench ---------------------------------------------------------------
  std::vector<double> late;
  for (const OpTiming& timing : t.timings) {
    if (timing.ran) late.push_back(Ms(timing.LateNs()));
  }
  out->AddPercentile("bench.late_p99_ms", "ms", late, 99.0);
  const size_t ops = t.Attempted();
  const size_t completed = ops - t.Failed();
  ProcCounters self = t.after.self - t.before.self;
  ProcCounters shards = t.after.shards - t.before.shards;
  out->Add("bench.nivcsw_per_op", "count",
           Ratio(static_cast<double>(self.nivcsw + shards.nivcsw),
                 static_cast<double>(ops)));
  uint64_t inserted = 0, deleted = 0, sealed_bytes = 0;
  for (size_t i = 0; i < t.ops.size(); ++i) {
    if (!t.records[i].ok) continue;
    if (t.ops[i].cls == OpClass::kInsert) {
      ++inserted;
      sealed_bytes += t.records[i].sealed_bytes;
    }
    if (t.ops[i].cls == OpClass::kDelete) ++deleted;
  }
  double drift;
  if (t.before.elements > 0) {
    drift = 100.0 * static_cast<double>(t.after.elements - t.before.elements) /
            static_cast<double>(t.before.elements);
  } else {
    // No in-process element count (cluster): acked inserts and deletes.
    drift = 100.0 * (static_cast<double>(inserted) -
                     static_cast<double>(deleted)) /
            static_cast<double>(initial_elements_);
  }
  out->Add("bench.index_drift_pct", "%", drift);
  double untraced_p50 = Percentile(u.Latencies(OpClass::kQueryZerberR), 50.0);
  double traced_p50 = Percentile(t.Latencies(OpClass::kQueryZerberR), 50.0);
  out->Add("bench.trace_overhead_pct", "%",
           100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50));
  out->Add("bench.failed_share", "ratio",
           Ratio(static_cast<double>(t.Failed() + u.Failed()),
                 static_cast<double>(ops + u.Attempted())),
           ops + u.Attempted());
  // Latencies, the rate search, CPU and memory: the same definitions as
  // end to end, on this run's untraced window. They vary from run to run
  // with the host more than a gate's bound allows (see DESIGN.md), so
  // they are reported here.
  for (size_t c = 0; c < kOpClasses; ++c) {
    std::vector<double> lat = u.Latencies(static_cast<OpClass>(c));
    std::string base = std::string("bench.") + kOpNames[c];
    out->AddPercentile(base + "_p50_ms", "ms", lat, 50.0);
    out->AddPercentile(base + TailSuffix(static_cast<OpClass>(c)), "ms", lat,
                       TailPercentile(static_cast<OpClass>(c)));
  }
  out->Add("bench.max_rate_ops_s", "ops/s", max_rate);
  out->Add("bench.cpu_us_per_op", "us", u.CpuUsPerOp());
  out->Add("bench.rss_mb", "MB",
           static_cast<double>(u.after.peak_rss_kb) / 1024.0);

  // --- span trees: op -> exchanges -> dispatch ------------------------------
  std::unordered_map<uint64_t, const Span*> op_span;      // by span id
  std::unordered_map<uint64_t, const Span*> dispatch_of;  // by exchange id
  std::unordered_map<uint64_t, std::vector<const Span*>> exchanges_of;
  for (const Span& s : t.spans) {
    if (s.kind == SpanKind::kOp) op_span[s.span_id] = &s;
    if (s.kind == SpanKind::kDispatch) dispatch_of[s.parent_id] = &s;
    if (s.kind == SpanKind::kExchange) exchanges_of[s.parent_id].push_back(&s);
  }
  std::array<std::vector<double>, kNumExchanges> exchange_us, dispatch_us,
      wire_us;
  std::vector<double> query_self, plain_self;
  double self_total = 0, elements_total = 0;
  // Traced Zerber+R query time and the parts the spans attribute.
  double zr_op = 0, zr_self = 0, zr_wire = 0, zr_dispatch = 0;
  for (size_t i = 0; i < t.ops.size(); ++i) {
    const OpRecord& r = t.records[i];
    auto found = op_span.find(r.span_id);
    if (r.span_id == 0 || !r.ok || found == op_span.end()) continue;
    const Span& op = *found->second;
    const OpClass cls = t.ops[i].cls;
    std::vector<Interval> children;
    double wire_ns = 0, dispatch_ns = 0;
    for (const Span* ex : exchanges_of[op.span_id]) {
      children.push_back({ex->start_ns, ex->end_ns});
      exchange_us[ex->cls].push_back(Us(ex->DurationNs()));
      auto d = dispatch_of.find(ex->span_id);
      if (d == dispatch_of.end()) continue;
      const uint64_t dispatch = d->second->DurationNs();
      const uint64_t wire =
          ex->DurationNs() - std::min(ex->DurationNs(), dispatch);
      dispatch_us[ex->cls].push_back(Us(dispatch));
      wire_us[ex->cls].push_back(Us(wire));
      wire_ns += static_cast<double>(wire);
      dispatch_ns += static_cast<double>(dispatch);
    }
    const uint64_t self_ns = SelfTime({op.start_ns, op.end_ns}, children);
    if (cls == OpClass::kQueryZerberR) {
      query_self.push_back(Us(self_ns));
      zr_op += static_cast<double>(op.DurationNs());
      zr_self += static_cast<double>(self_ns);
      zr_wire += wire_ns;
      zr_dispatch += dispatch_ns;
    } else if (cls == OpClass::kQueryZerber) {
      plain_self.push_back(Us(self_ns));
    }
    if (cls == OpClass::kQueryZerberR || cls == OpClass::kQueryZerber) {
      self_total += static_cast<double>(self_ns);
      elements_total += static_cast<double>(r.elements);
    }
  }
  std::printf("traced Zerber+R query time: client self %.1f%%, wire %.1f%%, "
              "dispatch %.1f%%, unattributed %.2f%%\n",
              100 * Ratio(zr_self, zr_op), 100 * Ratio(zr_wire, zr_op),
              100 * Ratio(zr_dispatch, zr_op),
              100 * Ratio(zr_op - zr_self - zr_wire - zr_dispatch, zr_op));
  out->Add("bench.unattributed_pct", "%",
           100.0 * Ratio(zr_op - zr_self - zr_wire - zr_dispatch, zr_op));

  // --- core ----------------------------------------------------------------
  out->AddPercentile("core.query_self_us", "us", query_self, 50.0);
  out->AddPercentile("core.plain_self_us", "us", plain_self, 50.0);
  out->Add("core.open_us_per_element", "us",
           Ratio(self_total / 1e3, elements_total),
           static_cast<size_t>(elements_total));
  double zr_elements = 0, zr_kept = 0;
  size_t zr_queries = 0;
  for (size_t i = 0; i < t.ops.size(); ++i) {
    if (t.ops[i].cls != OpClass::kQueryZerberR || !t.records[i].ok) continue;
    zr_elements += static_cast<double>(t.records[i].elements);
    zr_kept += static_cast<double>(t.records[i].kept);
    ++zr_queries;
  }
  out->Add("core.elements_per_query", "count",
           Ratio(zr_elements, static_cast<double>(zr_queries)), zr_queries);
  out->Add("core.useful_ratio", "ratio", Ratio(zr_kept, zr_elements));
  out->Add("core.client_cpu_us_per_op", "us",
           Ratio(Us(t.lane_cpu_ns), static_cast<double>(completed)));

  // --- zerber --------------------------------------------------------------
  std::vector<double> seal;
  for (size_t i = 0; i < t.ops.size(); ++i) {
    if (t.ops[i].cls == OpClass::kInsert && t.records[i].ok) {
      seal.push_back(Us(t.records[i].seal_ns));
    }
  }
  if (seal.empty()) {
    out->Add("zerber.seal_us", "us", SealSampleUs(), kSealSample);
  } else {
    out->AddPercentile("zerber.seal_us", "us", seal, 50.0);
  }
  for (size_t e = 0; e < kNumExchanges; ++e) {
    std::string name = ExchangeName(static_cast<Exchange>(e));
    out->AddPercentile("zerber.dispatch_us." + name + ".p50", "us",
                       dispatch_us[e], 50.0);
    out->AddPercentile("zerber.dispatch_us." + name + ".p99", "us",
                       dispatch_us[e], 99.0);
  }
  const zerber::ServerStats& sb = t.before.server;
  const zerber::ServerStats& sa = t.after.server;
  auto per_request = [](uint64_t ns, uint64_t requests) {
    return Ratio(Us(ns), static_cast<double>(requests));
  };
  out->Add("zerber.index_us.fetch", "us",
           per_request(sa.fetch_latency_ns - sb.fetch_latency_ns,
                       sa.fetch_requests - sb.fetch_requests),
           sa.fetch_requests - sb.fetch_requests);
  out->Add("zerber.index_us.insert", "us",
           per_request(sa.insert_latency_ns - sb.insert_latency_ns,
                       sa.insert_requests - sb.insert_requests),
           sa.insert_requests - sb.insert_requests);
  out->Add("zerber.index_us.delete", "us",
           per_request(sa.delete_latency_ns - sb.delete_latency_ns,
                       sa.delete_requests - sb.delete_requests),
           sa.delete_requests - sb.delete_requests);
  out->Add("zerber.elements_served_per_fetch", "count",
           Ratio(static_cast<double>(sa.elements_served - sb.elements_served),
                 static_cast<double>(sa.fetch_requests - sb.fetch_requests)));
  out->Add("zerber.server_cpu_us_per_op", "us",
           Ratio(Us(self.cpu_ns - std::min(self.cpu_ns, t.lane_cpu_ns)),
                 static_cast<double>(completed)));
  out->Add("zerber.denied", "count",
           static_cast<double>((sa.insert_denied - sb.insert_denied) +
                               (sa.delete_denied - sb.delete_denied)));

  // --- net -----------------------------------------------------------------
  for (size_t e = 0; e < kNumExchanges; ++e) {
    std::string name = ExchangeName(static_cast<Exchange>(e));
    out->AddPercentile("net.exchange_us." + name + ".p50", "us",
                       exchange_us[e], 50.0);
    out->AddPercentile("net.exchange_us." + name + ".p99", "us",
                       exchange_us[e], 99.0);
    out->AddPercentile("net.wire_us." + name, "us", wire_us[e], 50.0);
  }
  // The program's own spans: a framed hop (transport) and the serving
  // side's dispatch of that frame (shard_serve). On search and mixed they
  // time the client <-> server hop, on cluster the router <-> shard hop.
  std::map<uint64_t, std::array<double, obs::kNumStages + 1>> stage_ns;
  std::array<std::vector<double>, obs::kNumStages + 1> stage_us;
  std::map<uint64_t, size_t> transports_of;
  for (const obs::SpanRecord& s : t.program_spans) {
    size_t stage = static_cast<size_t>(s.stage);
    if (stage > obs::kNumStages) continue;
    stage_ns[s.trace_id][stage] += static_cast<double>(s.duration_ns);
    stage_us[stage].push_back(Us(s.duration_ns));
    if (s.stage == obs::Stage::kTransport) ++transports_of[s.trace_id];
  }
  const auto kTransport = static_cast<size_t>(obs::Stage::kTransport);
  const auto kServe = static_cast<size_t>(obs::Stage::kShardServe);
  const auto kIndex = static_cast<size_t>(obs::Stage::kIndexServe);
  std::vector<double> hop, commit;
  for (const auto& [trace, ns] : stage_ns) {
    size_t hops = transports_of[trace];
    if (hops > 0 && ns[kServe] > 0) {
      hop.push_back((ns[kTransport] - ns[kServe]) / 1e3 /
                    static_cast<double>(hops));
    }
  }
  out->AddPercentile("net.hop_us", "us", hop, 50.0);
  out->AddPercentile("net.serve_us", "us", stage_us[kServe], 50.0);
  const uint64_t frames = t.sockets.frames_up + t.sockets.frames_down;
  out->Add("net.frames_per_op", "count",
           Ratio(static_cast<double>(frames), static_cast<double>(ops)));
  out->Add("net.socket_bytes_per_op", "bytes",
           Ratio(static_cast<double>(t.sockets.bytes_up + t.sockets.bytes_down),
                 static_cast<double>(ops)));
  uint64_t loop_max = 0, loop_total = 0;
  for (size_t l = 0; l < t.after.loops.size(); ++l) {
    uint64_t served =
        t.after.loops[l].frames_served - t.before.loops[l].frames_served;
    loop_max = std::max(loop_max, served);
    loop_total += served;
  }
  out->Add("net.loop_share_max", "ratio",
           Ratio(static_cast<double>(loop_max),
                 static_cast<double>(loop_total)));
  out->Add("net.protocol_errors", "count",
           static_cast<double>(t.after.tcp.protocol_errors -
                               t.before.tcp.protocol_errors));
  out->Add("net.reconnects", "count",
           static_cast<double>(t.sockets.reconnects));

  // --- store ---------------------------------------------------------------
  // Commit: a durable write's serving-side time minus its index time (WAL
  // append, group-commit wait, fsync). Mixed times the durable dispatch
  // with the benchmark's decorator; on cluster the shard's own frame
  // dispatch (shard_serve) stands in for it.
  for (size_t i = 0; i < t.ops.size(); ++i) {
    const OpRecord& r = t.records[i];
    OpClass cls = t.ops[i].cls;
    if (r.trace_id == 0 || !r.ok ||
        (cls != OpClass::kInsert && cls != OpClass::kDelete)) {
      continue;
    }
    auto it = stage_ns.find(r.trace_id);
    if (it == stage_ns.end() || it->second[kIndex] == 0) continue;
    double serving = 0;
    if (deployment_->router() != nullptr) {
      serving = it->second[kServe];
    } else {
      for (const Span* ex : exchanges_of[r.span_id]) {
        auto d = dispatch_of.find(ex->span_id);
        if (d != dispatch_of.end()) {
          serving += static_cast<double>(d->second->DurationNs());
        }
      }
    }
    if (serving > 0) {
      commit.push_back(std::max(0.0, serving - it->second[kIndex]) / 1e3);
    }
  }
  out->AddPercentile("store.commit_us.p50", "us", commit, 50.0);
  out->AddPercentile("store.commit_us.p99", "us", commit, 99.0);
  out->AddPercentile(
      "store.wal_append_us", "us",
      stage_us[static_cast<size_t>(obs::Stage::kWalAppend)], 50.0);
  out->Add("store.snapshots", "count",
           static_cast<double>(t.after.snapshot_epochs -
                               t.before.snapshot_epochs));
  out->Add("store.write_amp", "ratio",
           Ratio(static_cast<double>(self.write_bytes + shards.write_bytes),
                 static_cast<double>(sealed_bytes)));

  // --- cluster -------------------------------------------------------------
  const cluster::RouterStats& rb = t.before.router;
  const cluster::RouterStats& ra = t.after.router;
  out->Add("cluster.attempts_per_op", "count",
           Ratio(static_cast<double>(ra.attempts - rb.attempts),
                 static_cast<double>(ops)));
  out->Add("cluster.retries", "count",
           static_cast<double>(ra.retries - rb.retries));
  out->Add("cluster.transport_errors", "count",
           static_cast<double>(ra.transport_errors - rb.transport_errors));
  out->Add("cluster.unavailable", "count",
           static_cast<double>(ra.unavailable - rb.unavailable));
  out->Add("cluster.shard_cpu_us_per_op", "us",
           Ratio(Us(shards.cpu_ns), static_cast<double>(completed)));

  // The span store itself: a dropped span would bias every span metric.
  out->Add("bench.spans_dropped", "count",
           static_cast<double>(t.spans_dropped));
}

void Bench::PrintResult(bool correct, size_t attempted, size_t failed,
                        const MetricSet& metrics) const {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.Json().c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  auto fail = [&](const Status& status) {
    std::fprintf(stderr, "perfbench %s: %s\n", spec_.name,
                 status.ToString().c_str());
    PrintResult(false, 1, 1, MetricSet());
    return 1;
  };
  if (Status s = Setup(); !s.ok()) return fail(s);
  core::Pipeline& p = deployment_->pipeline();
  initial_elements_ = deployment_->IndexElements();
  if (initial_elements_ < 0) {
    // No in-process count (cluster): corpus postings plus the seed.
    initial_elements_ = static_cast<int64_t>(p.baseline->NumPostings() +
                                             spec_.seed_handles);
  }
  if (Status s = BuildLanes(); !s.ok()) return fail(s);
  std::printf("perfbench %s seed=%" PRIu64 " rate=%.0f ops/s window=%.1f s"
              " lanes=%zu setup_s=",
              spec_.name, options_.seed, spec_.rate, options_.seconds,
              lanes_.size());
  for (double v : setup_seconds_) std::printf(" %.3f", v);
  std::printf("\n");

  auto fixed_rate_window = [&](double seconds, uint64_t salt,
                               bool traced) -> StatusOr<Window> {
    ZR_ASSIGN_OR_RETURN(Window w, RunWindow(spec_.rate, seconds, salt, traced));
    ZR_RETURN_IF_ERROR(NoFailedOps(w));
    return w;
  };

  // Warm caches, connections and lazy set-up before anything is timed.
  if (Status s = CheckProbes(); !s.ok()) return fail(s);
  if (auto w = fixed_rate_window(kWarmupSeconds, 1, false); !w.ok()) {
    return fail(w.status());
  }

  MetricSet metrics;
  size_t attempted = 0, failed = 0;
  if (Status s = CheckProbes(); !s.ok()) return fail(s);
  // rss_mb is the peak while serving the measured window.
  ResetPeakRss(0);
  for (pid_t pid : deployment_->shard_pids()) ResetPeakRss(pid);
  auto untraced = fixed_rate_window(options_.seconds, 2, false);
  if (!untraced.ok()) return fail(untraced.status());
  attempted = untraced->Attempted();
  failed = untraced->Failed();
  if (!options_.trace) {
    EndToEndMetrics(*untraced, &metrics);
    metrics.Print(stdout, "end-to-end (untraced)");
  } else {
    // Same seed, same rate, same op stream: only the tracing differs.
    if (Status s = CheckProbes(); !s.ok()) return fail(s);
    auto traced = fixed_rate_window(options_.seconds, 2, true);
    if (!traced.ok()) return fail(traced.status());
    attempted += traced->Attempted();
    failed += traced->Failed();
    Status probe_failure;
    double max_rate = FindMaxRate(&probe_failure);
    if (!probe_failure.ok()) return fail(probe_failure);
    LayerMetrics(*untraced, *traced, max_rate, &metrics);
    metrics.Print(stdout, "per-layer (traced)");
    std::error_code ec;
    std::filesystem::create_directories(options_.trace_dir, ec);
    std::string stem = options_.trace_dir + "/" + spec_.name + "-seed" +
                       std::to_string(options_.seed);
    if (Status s = WriteSpans(stem + ".spans.jsonl", traced->spans,
                              traced->program_spans, kOpNames);
        !s.ok()) {
      return fail(s);
    }
    if (FILE* table = std::fopen((stem + ".layers.txt").c_str(), "w")) {
      metrics.Print(table, "per-layer (traced)");
      std::fclose(table);
    }
    std::printf("spans: %s.spans.jsonl (%zu benchmark, %zu program)\n",
                stem.c_str(), traced->spans.size(),
                traced->program_spans.size());
  }
  // The gate runs again after the last window: churn must not have
  // changed what the probe user sees.
  if (Status s = CheckProbes(); !s.ok()) return fail(s);
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

int RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  // The deployment (and its shard processes) is gone before its files.
  int code = Bench(spec, options).Run();
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  return code;
}

}  // namespace zr::perfbench
