// loadgen: drive the serving stack under a realistic mixed workload and
// emit a machine-readable performance report.
//
// The paper evaluates Zerber+R by response size and round trips under a
// Zipf query workload (Sections 6.5-6.6); this harness extends that to the
// full serving stack — Zipf top-k queries through both client flows,
// insert/delete churn, multi-group users — against one-shard and
// four-shard backends, and records per-op-class latency percentiles and
// throughput into BENCH_loadtest.json. CI's perf-smoke job replays the
// pinned `ci` spec and fails the build when the numbers regress against
// the committed baseline (tools/check_perf.py).
//
//   ./loadgen --spec=ci                     # the pinned CI gate workload
//   ./loadgen --spec=default --workers=8    # ad-hoc runs; flags override
//   ./loadgen --spec=churn                  # 100k-element delete-churn gate
//   ./loadgen --spec=ci --transport=tcp --data-dir=/tmp/zr
//                                           # sharded+durable served over TCP
//
// Specs:
//   ci      one-shard + 4-shard + 4-process-cluster configs on the tiny
//           synthetic dataset, plus the churn and hiconn configs below
//           (BENCH_loadtest.json, 6 configs).
//   churn   insert/delete churn against one 100k-element TRS-sorted merged
//           list (the workload that was quadratic before MergedList grew a
//           handle index; the gate checks delete p99 <= 5x insert p99).
//   cluster          the cluster config alone (spawns 4 shard servers;
//                    --shard-server points at the binary when loadgen does
//                    not sit next to it in the build tree).
//   cluster-failover cluster config with one shard SIGKILLed and restarted
//                    mid-window; gates on the shard rejoining the router.
//   hiconn  high-connection-count TCP serving: >= 1000 concurrent
//           sessions (--hiconn-sessions) pipelining fetches against the
//           same backend served once by a single-loop and once by a
//           4-loop TcpServer ("hiconn1"/"hiconn4" configs); gates on the
//           multi-loop server beating the single-loop one (strictly, on
//           multi-core hardware) and on the framing identity. Also part
//           of the ci spec.
//   default a one-shard config, flag-tunable.
//
// --transport=direct|tcp selects how workers reach the backend; tcp
// starts a real net::TcpServer in-process, gives every worker its own
// socket, and the run fails unless the socket byte counts satisfy the
// framing identity against the payload (direct-equivalent) accounting.
// --data-dir=DIR wraps the mixed-spec backends in the durable storage
// engine (fresh per-config subdirectories; the churn config stays
// in-memory — its preload path restores into its one shard directly).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/harness.h"
#include "cluster/process.h"
#include "cluster/router.h"
#include "core/pipeline.h"
#include "load/driver.h"
#include "load/load_spec.h"
#include "load/report.h"
#include "net/messages.h"
#include "net/tcp.h"
#include "util/random.h"
#include "zerber/posting_element.h"

namespace {

using namespace zr;

struct Flags {
  std::string spec = "default";
  std::string out = "BENCH_loadtest.json";
  uint64_t seed = 20260730;
  size_t workers = 8;
  uint64_t ops = 0;          // 0 = spec default
  uint64_t duration_ms = 0;  // 0 = op-count bound
  double rate = 0.0;         // >0 switches to open loop
  std::string transport = "direct";
  size_t shards = 0;  // 0 = spec default; "default" spec only
  size_t loops = 0;   // event loops of tcp-served configs; 0 = spec default
  size_t hiconn_sessions = 1024;  // concurrent sessions of the hiconn spec
  std::string data_dir;  // non-empty = durable backends (fresh per-config subdirs)
  std::string shard_server;  // shard-server binary for cluster configs

  /// Trace 1-in-N measured ops (LoadSpec::trace_sample). The sentinel
  /// keeps "flag not given" distinguishable from an explicit 0: the
  /// cluster config defaults to sampling (so the CI run always produces a
  /// live end-to-end trace), every other config to off.
  static constexpr uint64_t kTraceSampleUnset = ~0ull;
  uint64_t trace_sample = kTraceSampleUnset;

  uint64_t slow_op_ns = 0;  ///< slow-op log threshold (0 = disabled)

  /// Path of the zerber_stats binary. Non-empty: the cluster4 config runs
  /// it against the live shard servers after the measured window (before
  /// teardown) and gates on its exit status — the CI proof that the
  /// scrape plane answers with parseable, non-empty exposition text.
  std::string zerber_stats;
  std::string scrape_out = "BENCH_scrape.prom";

  /// --attack: run the adversarial traffic sweep (src/attack/) instead of
  /// a load spec and write the deterministic privacy report that
  /// tools/check_privacy.py gates against the committed baseline.
  bool attack = false;
  std::string attack_out = "BENCH_privacy.json";
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--spec", &value)) {
      flags.spec = value;
    } else if (ParseFlag(argv[i], "--out", &value)) {
      flags.out = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      flags.workers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--ops", &value)) {
      flags.ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--duration-ms", &value)) {
      flags.duration_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--rate", &value)) {
      flags.rate = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--transport", &value)) {
      flags.transport = value;
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      flags.shards = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--loops", &value)) {
      flags.loops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--hiconn-sessions", &value)) {
      flags.hiconn_sessions = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--data-dir", &value)) {
      flags.data_dir = value;
    } else if (ParseFlag(argv[i], "--shard-server", &value)) {
      flags.shard_server = value;
    } else if (ParseFlag(argv[i], "--trace-sample", &value)) {
      flags.trace_sample = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--slow-op-ns", &value)) {
      flags.slow_op_ns = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--zerber-stats", &value)) {
      flags.zerber_stats = value;
    } else if (ParseFlag(argv[i], "--scrape-out", &value)) {
      flags.scrape_out = value;
    } else if (std::strcmp(argv[i], "--attack") == 0) {
      flags.attack = true;
    } else if (ParseFlag(argv[i], "--attack-out", &value)) {
      flags.attack_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

/// The pinned mixed workload of the CI gate (and the default spec's base).
load::LoadSpec MixedSpec(const Flags& flags) {
  load::LoadSpec spec;
  spec.seed = flags.seed;
  spec.workers = flags.workers;
  spec.ops_per_worker = flags.ops != 0 ? flags.ops : 600;
  spec.duration_ms = flags.duration_ms;
  if (flags.duration_ms != 0) spec.ops_per_worker = 0;
  if (flags.rate > 0.0) {
    spec.mode = load::LoopMode::kOpen;
    spec.target_rate = flags.rate;
  }
  if (flags.trace_sample != Flags::kTraceSampleUnset) {
    spec.trace_sample = flags.trace_sample;
  }
  spec.slow_op_threshold_ns = flags.slow_op_ns;
  return spec;
}

net::TransportKind TransportOf(const Flags& flags) {
  auto kind = net::ParseTransportKind(flags.transport);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    std::exit(2);
  }
  return *kind;
}

std::unique_ptr<core::Pipeline> BuildDeploymentPipeline(
    const Flags& flags, size_t num_shards, const std::string& config_name) {
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.sigma = 0.002;
  options.seed = 20090324;
  options.num_shards = num_shards;
  options.transport = TransportOf(flags);
  if (flags.loops != 0) options.num_server_loops = flags.loops;
  options.build_baseline_index = false;
  options.build_query_log = false;
  if (!flags.data_dir.empty()) {
    // BuildPipeline expects a fresh store (it re-inserts the corpus);
    // each config gets its own scrubbed subdirectory.
    std::filesystem::path dir =
        std::filesystem::path(flags.data_dir) / config_name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    options.data_dir = dir.string();
  }
  auto pipeline = core::BuildPipeline(options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline build failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(pipeline).value();
}

/// The framing identity every clean tcp run must satisfy: the socket
/// moved exactly the payload bytes (drift-checked per message against
/// the analytic net::WireSize — DirectTransport's accounting) plus
/// one 4-byte frame header per message. Non-tcp runs pass trivially.
/// Runs with op errors or reconnects are exempt: a frame is counted when
/// it crosses the socket, but its payload is only accounted once the
/// whole exchange completes, so an interrupted exchange legitimately
/// breaks the identity — the real signal there is the error itself,
/// already visible in the report's error counters.
bool CheckTcpAccounting(const load::LoadReport& r) {
  if (r.transport_kind != "tcp") return true;
  uint64_t errors = 0;
  for (const auto& op_class : r.op_classes) errors += op_class.errors;
  if (errors > 0 || r.socket.reconnects > 0) {
    std::printf(
        "%-10s tcp accounting: skipped (%llu op error(s), %llu "
        "reconnect(s) — identity only holds for completed exchanges)\n",
        r.name.c_str(), static_cast<unsigned long long>(errors),
        static_cast<unsigned long long>(r.socket.reconnects));
    return true;
  }
  // Traced frames additionally carry their extension bytes, tracked
  // separately by the session — the identity stays exact under sampling:
  // socket == payload + 4 * frames + ext. Untraced runs have ext == 0 and
  // reduce to the original identity.
  uint64_t expect_up = r.transport.bytes_up +
                       net::kFrameHeaderBytes * r.socket.frames_up +
                       r.socket.ext_bytes_up;
  uint64_t expect_down = r.transport.bytes_down +
                         net::kFrameHeaderBytes * r.socket.frames_down +
                         r.socket.ext_bytes_down;
  bool ok =
      r.socket.bytes_up == expect_up && r.socket.bytes_down == expect_down;
  std::printf(
      "%-10s tcp accounting: socket up %llu (payload %llu + frames %llu*4 "
      "+ ext %llu), down %llu (payload %llu + frames %llu*4 + ext %llu) %s\n",
      r.name.c_str(), static_cast<unsigned long long>(r.socket.bytes_up),
      static_cast<unsigned long long>(r.transport.bytes_up),
      static_cast<unsigned long long>(r.socket.frames_up),
      static_cast<unsigned long long>(r.socket.ext_bytes_up),
      static_cast<unsigned long long>(r.socket.bytes_down),
      static_cast<unsigned long long>(r.transport.bytes_down),
      static_cast<unsigned long long>(r.socket.frames_down),
      static_cast<unsigned long long>(r.socket.ext_bytes_down),
      ok ? "PASS" : "FAIL");
  return ok;
}

load::LoadReport MustRun(const load::Deployment& deployment,
                         const load::LoadSpec& spec, const std::string& name) {
  load::LoadDriver driver(deployment, spec);
  auto report = driver.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "load run '%s' failed: %s\n", name.c_str(),
                 report.status().ToString().c_str());
    std::exit(1);
  }
  report->name = name;
  return std::move(report).value();
}

void PrintSummary(const load::LoadReport& r) {
  std::printf("%-10s %8.0f ops/s total", r.name.c_str(), r.throughput);
  for (size_t c = 0; c < load::kNumOpClasses; ++c) {
    auto cls = static_cast<load::OpClass>(c);
    const auto& rc = r.op_classes[c];
    if (rc.attempted == 0) continue;
    std::printf(" | %s: %.0f/s p99=%.0fus", load::OpClassName(cls),
                r.ClassThroughput(cls), rc.latency.PercentileNs(99.0) / 1e3);
  }
  std::printf("\n");
}

/// The shard-server binary for cluster configs: the --shard-server flag,
/// else cluster::ShardServerBinary().
std::string ResolveShardServer(const Flags& flags) {
  return flags.shard_server.empty() ? cluster::ShardServerBinary()
                                    : flags.shard_server;
}

/// Mixed workload routed by a cluster::RouterService over 4 real
/// shard-server processes. The client side is always a Direct transport
/// into the router (--transport is ignored here): the measured wire is the
/// router->shard TCP hop, which exists regardless of how clients reach the
/// router. With kill_one_shard, one shard is SIGKILLed mid-window and
/// restarted on its old port; the run must complete — retries, breaker
/// trips and the rejoin show up in the report's "cluster" counters.
bool RunClusterConfig(const Flags& flags, bool kill_one_shard,
                      std::vector<load::LoadReport>* out) {
  constexpr size_t kShards = 4;
  const std::string binary = ResolveShardServer(flags);
  const std::string name = kill_one_shard ? "cluster4-failover" : "cluster4";
  std::filesystem::path root =
      flags.data_dir.empty()
          ? std::filesystem::temp_directory_path() / "zr-loadgen-cluster"
          : std::filesystem::path(flags.data_dir);
  root /= name;
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  std::filesystem::create_directories(root, ec);

  std::vector<std::unique_ptr<cluster::ShardProcess>> procs(kShards);
  std::vector<std::vector<std::string>> shard_args(kShards);

  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.sigma = 0.002;
  options.seed = 20090324;
  options.transport = net::TransportKind::kDirect;
  options.build_baseline_index = false;
  options.build_query_log = false;
  options.shard_launcher = [&](size_t num_lists, uint64_t backend_seed)
      -> StatusOr<std::vector<std::string>> {
    std::vector<std::string> addrs;
    for (size_t s = 0; s < kShards; ++s) {
      shard_args[s] = {
          "--shard=" + std::to_string(s),
          "--shards=" + std::to_string(kShards),
          "--lists=" + std::to_string(num_lists),
          "--seed=" + std::to_string(backend_seed),
          "--data-dir=" + (root / "s").string() + std::to_string(s),
          "--sync=group-commit",
          "--listen=127.0.0.1:0",
      };
      if (flags.slow_op_ns > 0) {
        // Arm the server-side slow-op log with the same threshold the
        // client side uses ("--listen" must stay last: the restart path
        // rewrites shard_args[s].back() with the pinned port).
        shard_args[s].insert(shard_args[s].end() - 1,
                             "--slow-op-ns=" + std::to_string(flags.slow_op_ns));
      }
      ZR_ASSIGN_OR_RETURN(procs[s],
                          cluster::ShardProcess::Start(binary, shard_args[s]));
      // Pin the ephemeral port it bound: a restart must come back on the
      // same address for the router to find it (SO_REUSEADDR on listen).
      shard_args[s].back() = "--listen=" + procs[s]->addr();
      addrs.push_back(procs[s]->addr());
    }
    return addrs;
  };

  auto pipeline = core::BuildPipeline(options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "cluster pipeline build failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  core::Pipeline* p = pipeline->get();

  load::LoadSpec spec = MixedSpec(flags);
  // The cluster config samples traces by default (1 op in 64): the CI run
  // must demonstrate a live end-to-end trace — client seal/op, router
  // fanout, shard serve, WAL append — in the report's "obs" block.
  if (flags.trace_sample == Flags::kTraceSampleUnset) spec.trace_sample = 64;
  std::thread chaos;
  if (kill_one_shard) {
    // Duration-bound so the kill and restart land inside the measured
    // window whatever the throughput.
    spec.duration_ms = flags.duration_ms != 0 ? flags.duration_ms : 3000;
    spec.ops_per_worker = 0;
    const size_t victim = kShards - 1;
    uint64_t window_ms = spec.duration_ms;
    chaos = std::thread([&procs, &shard_args, binary, victim, window_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(window_ms / 4));
      if (Status killed = procs[victim]->Kill(); !killed.ok()) {
        std::fprintf(stderr, "chaos kill failed: %s\n",
                     killed.ToString().c_str());
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(window_ms / 4));
      auto restarted =
          cluster::ShardProcess::Start(binary, shard_args[victim]);
      if (!restarted.ok()) {
        std::fprintf(stderr, "chaos restart failed: %s\n",
                     restarted.status().ToString().c_str());
        return;
      }
      procs[victim] = std::move(restarted).value();
    });
  }

  out->push_back(MustRun(load::DeploymentFromPipeline(p), spec, name));
  if (chaos.joinable()) chaos.join();
  PrintSummary(out->back());

  const cluster::RouterStats& rs = out->back().cluster;
  std::printf(
      "%-10s router: %llu attempts, %llu retries, %llu transport errors, "
      "%llu unavailable, %llu breaker open(s), %llu rejoin(s)\n",
      name.c_str(), static_cast<unsigned long long>(rs.attempts),
      static_cast<unsigned long long>(rs.retries),
      static_cast<unsigned long long>(rs.transport_errors),
      static_cast<unsigned long long>(rs.unavailable),
      static_cast<unsigned long long>(rs.breaker_opens),
      static_cast<unsigned long long>(rs.rejoins));

  const load::ObsReport& ob = out->back().obs;
  std::printf(
      "%-10s obs: %llu trace(s), %llu complete, %llu span(s), %llu "
      "dropped, %llu slow op(s)\n",
      name.c_str(), static_cast<unsigned long long>(ob.traces),
      static_cast<unsigned long long>(ob.complete_traces),
      static_cast<unsigned long long>(ob.spans),
      static_cast<unsigned long long>(ob.dropped_spans),
      static_cast<unsigned long long>(ob.slow_ops));

  bool gate_ok = true;
  if (kill_one_shard) {
    // The server block is a window delta of every shard's counters; a
    // shard restarted inside the window counts again from zero, so the
    // delta undercounts (it is clamped, never wrapped). Exact counts across
    // a restart would need an incarnation id on the wire.
    const load::LoadReport& report = out->back();
    std::printf(
        "%-10s inserts: %llu completed by clients, %llu server-side "
        "insert_requests%s\n",
        name.c_str(),
        static_cast<unsigned long long>(
            report.op_classes[static_cast<size_t>(load::OpClass::kInsert)]
                .ok),
        static_cast<unsigned long long>(report.server.insert_requests),
        rs.rejoins > 0 ? " (undercount: a shard restarted in the window)"
                       : "");
    // Survival gate: the run completed (MustRun exits otherwise) and the
    // restarted shard actually rejoined the router.
    gate_ok = rs.rejoins >= 1;
    std::printf("%-10s failover gate: %s\n", name.c_str(),
                gate_ok ? "PASS (shard rejoined)" : "FAIL (no rejoin)");
  } else {
    if (spec.trace_sample > 0) {
      // Trace gate: sampling was on, so at least one sampled mutation must
      // have produced a complete client -> router -> shard -> WAL trace.
      bool trace_ok = ob.complete_traces >= 1;
      std::printf("%-10s trace gate: %s\n", name.c_str(),
                  trace_ok ? "PASS (complete end-to-end trace)"
                           : "FAIL (no complete trace)");
      gate_ok = gate_ok && trace_ok;
    }
    if (!flags.zerber_stats.empty()) {
      // Scrape gate: run the real CLI against the still-live shards;
      // zerber_stats exits non-zero unless every shard returned a
      // non-empty, parseable registry dump.
      std::string addrs;
      for (size_t s = 0; s < procs.size(); ++s) {
        if (s > 0) addrs.push_back(',');
        addrs += procs[s]->addr();
      }
      std::string command = flags.zerber_stats + " --addrs=" + addrs +
                            " --format=prom --out=" + flags.scrape_out;
      int rc = std::system(command.c_str());
      bool scrape_ok = rc == 0;
      std::printf("%-10s scrape gate (%s -> %s): %s\n", name.c_str(),
                  flags.zerber_stats.c_str(), flags.scrape_out.c_str(),
                  scrape_ok ? "PASS" : "FAIL");
      gate_ok = gate_ok && scrape_ok;
    }
  }
  for (auto& proc : procs) {
    if (proc && proc->running()) (void)proc->Terminate();
  }
  return gate_ok;
}

/// Raises RLIMIT_NOFILE's soft limit toward the hard limit when `needed`
/// descriptors would not fit (a 1000-session hiconn run holds both ends of
/// every connection in one process).
void EnsureFdBudget(size_t needed) {
  struct rlimit limit;
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur != RLIM_INFINITY && limit.rlim_cur < needed) {
    rlim_t want = needed;
    if (limit.rlim_max != RLIM_INFINITY && want > limit.rlim_max) {
      want = limit.rlim_max;
    }
    limit.rlim_cur = want;
    if (setrlimit(RLIMIT_NOFILE, &limit) != 0) {
      std::fprintf(stderr,
                   "warning: could not raise RLIMIT_NOFILE to %llu; "
                   "hiconn connects may fail\n",
                   static_cast<unsigned long long>(want));
    }
  }
}

/// One hiconn measurement: `num_sessions` concurrent TcpSessions spread
/// over `threads` client threads, all pipelining plain fetch frames
/// against one tcp-served one-shard backend running `num_loops` event
/// loops. Connections are established and warmed before the clock starts,
/// so the measured window is steady-state serving. The report records the
/// traffic under the plain-Zerber query class (one whole-list fetch
/// exchange per op).
load::LoadReport RunHiconnOnce(const Flags& flags, size_t num_loops,
                               const std::string& name) {
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.sigma = 0.002;
  options.seed = 20090324;
  options.transport = net::TransportKind::kTcp;
  options.num_server_loops = num_loops;
  options.build_baseline_index = false;
  options.build_query_log = false;
  auto pipeline = core::BuildPipeline(options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "hiconn pipeline build failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  core::Pipeline* p = pipeline->get();
  const std::string addr = p->tcp_server->address();
  const uint32_t num_lists = static_cast<uint32_t>(p->plan.NumLists());
  const uint32_t user = p->user;

  const size_t threads = flags.workers != 0 ? flags.workers : 8;
  const size_t per_thread = (flags.hiconn_sessions + threads - 1) / threads;
  const size_t num_sessions = per_thread * threads;
  const uint64_t rounds = flags.ops != 0 ? flags.ops : 40;
  // Both ends of every session live in this process, plus slack for the
  // pipeline's own sockets, wake pipes and stdio.
  EnsureFdBudget(2 * num_sessions + 256);

  struct Totals {
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t payload_up = 0;
    uint64_t payload_down = 0;
    net::TcpSocketStats socket;
  };
  std::vector<Totals> totals(threads);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Totals& mine = totals[t];
      std::vector<std::unique_ptr<net::TcpSession>> conns;
      conns.reserve(per_thread);
      for (size_t i = 0; i < per_thread; ++i) {
        auto conn = std::make_unique<net::TcpSession>(addr);
        // Establish + warm the connection outside the measured window,
        // then zero its socket counters so the framing identity below
        // covers exactly the measured traffic.
        net::QueryRequest warm{user, static_cast<uint32_t>(i) % num_lists,
                               /*offset=*/0, /*count=*/1};
        std::string response;
        if (!conn->Call(net::Serialize(warm), &response).ok()) {
          ++mine.errors;
        }
        conn->ResetSocketStats();
        conns.push_back(std::move(conn));
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

      // Pipelined rounds: a send sweep across every session keeps
      // `per_thread` fetches in flight per client thread, then a receive
      // sweep drains them in order.
      for (uint64_t round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < conns.size(); ++i) {
          net::QueryRequest fetch{
              user,
              static_cast<uint32_t>((t * per_thread + i + round) % num_lists),
              /*offset=*/0, /*count=*/4};
          std::string wire = net::Serialize(fetch);
          mine.payload_up += wire.size();
          if (!conns[i]->SendFrame(wire).ok()) ++mine.errors;
        }
        for (auto& conn : conns) {
          std::string response;
          if (conn->RecvFrame(&response).ok()) {
            ++mine.ok;
            mine.payload_down += response.size();
          } else {
            ++mine.errors;
          }
        }
      }
      for (const auto& conn : conns) mine.socket += conn->socket_stats();
    });
  }
  while (ready.load() < threads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : pool) thread.join();
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();

  load::LoadReport report;
  report.name = name;
  report.spec.seed = flags.seed;
  report.spec.workers = threads;
  report.spec.ops_per_worker = rounds * per_thread;
  report.spec.mix = {0.0, 1.0, 0.0, 0.0};  // plain-Zerber fetches only
  report.spec.num_users = 1;
  report.spec.groups_per_user = 1;
  report.spec.warmup_inserts = 0;
  report.wall_seconds = wall;
  report.transport_kind = "tcp";
  auto& fetch_class =
      report.op_classes[static_cast<size_t>(load::OpClass::kQueryZerber)];
  for (const Totals& t : totals) {
    fetch_class.ok += t.ok;
    fetch_class.errors += t.errors;
    report.transport.bytes_up += t.payload_up;
    report.transport.bytes_down += t.payload_down;
    report.socket += t.socket;
  }
  fetch_class.attempted = fetch_class.ok + fetch_class.errors;
  fetch_class.exchanges = fetch_class.attempted;
  fetch_class.bytes = report.transport.bytes_down;
  report.total_ops = fetch_class.ok;
  report.throughput = wall > 0.0 ? fetch_class.ok / wall : 0.0;
  report.transport.exchanges = fetch_class.attempted;

  const net::TcpServerStats server_stats = p->tcp_server->stats();
  std::printf("%-10s %8.0f fetches/s over %zu sessions x %zu loop(s)",
              name.c_str(), report.throughput, num_sessions, num_loops);
  std::vector<net::TcpServerStats> shards = p->tcp_server->per_loop_stats();
  std::printf(" | loop frames:");
  for (const net::TcpServerStats& shard : shards) {
    std::printf(" %llu", static_cast<unsigned long long>(shard.frames_served));
  }
  std::printf(" | protocol errors: %llu\n",
              static_cast<unsigned long long>(server_stats.protocol_errors));
  return report;
}

/// The hiconn spec: the same >= 1000-session fetch workload against a
/// single-loop and a 4-loop server. Returns false when the multi-loop
/// server fails to beat the single-loop one (strict on multi-core
/// hardware; within-tolerance on a single hardware thread, where a
/// parallel speedup is physically impossible) or when either run errors
/// or breaks the framing identity.
bool RunHiconnConfig(const Flags& flags, std::vector<load::LoadReport>* out) {
  constexpr size_t kMultiLoops = 4;
  out->push_back(RunHiconnOnce(flags, /*num_loops=*/1, "hiconn1"));
  bool ok = CheckTcpAccounting(out->back());
  const load::LoadReport& single = out->back();
  out->push_back(RunHiconnOnce(flags, kMultiLoops, "hiconn4"));
  ok = CheckTcpAccounting(out->back()) && ok;
  const load::LoadReport& multi = out->back();

  for (const load::LoadReport* r : {&single, &multi}) {
    uint64_t errors =
        r->op_classes[static_cast<size_t>(load::OpClass::kQueryZerber)].errors;
    if (errors > 0) {
      std::printf("%-10s hiconn gate: FAIL (%llu op error(s))\n",
                  r->name.c_str(), static_cast<unsigned long long>(errors));
      ok = false;
    }
  }

  double ratio = single.throughput > 0.0
                     ? multi.throughput / single.throughput
                     : 0.0;
  const bool parallel_hw = std::thread::hardware_concurrency() > 1;
  bool scaling_ok = parallel_hw ? multi.throughput > single.throughput
                                : ratio >= 0.75;
  std::printf(
      "hiconn loops=%zu/loops=1 throughput: %.2fx (gate: %s) %s\n",
      kMultiLoops, ratio,
      parallel_hw ? "> 1.0x"
                  : ">= 0.75x — single hardware thread, no parallel speedup "
                    "possible",
      scaling_ok ? "PASS" : "FAIL");
  return scaling_ok && ok;
}

/// Mixed workload against a one-shard backend and a 4-shard backend.
/// Returns false when a tcp run violates the framing accounting identity.
bool RunMixedConfigs(const Flags& flags, std::vector<load::LoadReport>* out) {
  load::LoadSpec spec = MixedSpec(flags);
  bool accounting_ok = true;

  auto single = BuildDeploymentPipeline(flags, /*num_shards=*/1, "single");
  out->push_back(
      MustRun(load::DeploymentFromPipeline(single.get()), spec, "single"));
  PrintSummary(out->back());
  accounting_ok = CheckTcpAccounting(out->back()) && accounting_ok;

  auto sharded = BuildDeploymentPipeline(flags, /*num_shards=*/4, "sharded4");
  out->push_back(
      MustRun(load::DeploymentFromPipeline(sharded.get()), spec, "sharded4"));
  PrintSummary(out->back());
  accounting_ok = CheckTcpAccounting(out->back()) && accounting_ok;

  double single_q =
      out->at(out->size() - 2).ClassThroughput(load::OpClass::kQueryZerberR);
  double sharded_q =
      out->back().ClassThroughput(load::OpClass::kQueryZerberR);
  std::printf("sharded4/single query throughput: %.2fx\n",
              single_q > 0.0 ? sharded_q / single_q : 0.0);
  return accounting_ok;
}

/// Insert/delete churn against one preloaded 100k-element TRS-sorted list.
/// Returns false when the churn gate fails (delete p99 > 5x insert p99 —
/// the signature of delete lookups having degraded back to O(list) scans).
/// The gate is a within-run ratio, so it holds on any hardware.
bool RunChurnConfig(const Flags& flags, size_t preload,
                    std::vector<load::LoadReport>* out) {
  // A corpus of one term: BFM folds everything into a single merged list.
  text::Corpus corpus;
  for (int d = 0; d < 10; ++d) {
    corpus.AddDocumentTokens({"churnterm", "churnterm"}, /*group=*/1);
  }
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.sigma = 0.002;
  options.seed = 20090324;
  options.transport = TransportOf(flags);
  options.build_baseline_index = false;
  options.build_query_log = false;
  auto pipeline = core::BuildPipelineFromCorpus(std::move(corpus), options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "churn pipeline build failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  core::Pipeline* p = pipeline->get();

  load::LoadSpec spec;
  spec.seed = flags.seed;
  spec.workers = 4;
  spec.ops_per_worker = flags.ops != 0 ? flags.ops : 1000;
  spec.mix = {0.0, 0.0, 0.5, 0.5};  // pure insert/delete churn
  spec.num_users = 4;
  spec.groups_per_user = 1;
  spec.warmup_inserts = 16;

  // Preload the list to `preload` elements via snapshot-restore (each an
  // O(log n) search and an append), seeding the delete pools with every
  // preloaded handle.
  text::TermId term = p->corpus.vocabulary().Lookup("churnterm");
  auto term_string = p->corpus.vocabulary().TermOf(term);
  zerber::MergedListId list =
      p->plan.ListOf(term, p->keys->TermPseudonym(*term_string));
  Rng rng(flags.seed ^ 0xC0FFEE);
  std::vector<zerber::EncryptedPostingElement> elements;
  elements.reserve(preload);
  for (size_t i = 0; i < preload; ++i) {
    // Preloaded TRS values sit in [0, 1e-6), below the corpus-built
    // elements (whose trained-RSTF TRS is far larger), so restore inserts
    // each one at the tail instead of moving the list.
    auto element = zerber::SealPostingElement(
        zerber::PostingPayload{term, static_cast<text::DocId>(1000 + i),
                               rng.NextDouble()},
        /*group=*/1, /*trs=*/rng.NextDouble() * 1e-6, p->keys.get());
    if (!element.ok()) {
      std::fprintf(stderr, "seal failed: %s\n",
                   element.status().ToString().c_str());
      std::exit(1);
    }
    element->handle = 1000000 + i;
    elements.push_back(std::move(element).value());
  }
  // In descending TRS order, each restored element lands at the tail.
  std::sort(elements.begin(), elements.end(),
            [](const zerber::EncryptedPostingElement& a,
               const zerber::EncryptedPostingElement& b) {
              return a.trs > b.trs;
            });
  load::Deployment deployment = load::DeploymentFromPipeline(p);
  for (const auto& e : elements) {
    deployment.initial_handles.push_back(load::PreloadedHandle{
        load::LoadDriver::LoadUserId(e.handle % spec.num_users), list,
        e.handle});
  }
  // Preload happens before the load phase starts any worker thread. The
  // pipeline is one shard, so the global list is its shard's list too.
  zerber::IndexServer& shard = p->sharded->shard(0);
  zr::QuiescenceLock quiesced(shard.quiescence());
  Status restored = shard.RestoreElements(list, std::move(elements));
  if (!restored.ok()) {
    std::fprintf(stderr, "preload failed: %s\n", restored.ToString().c_str());
    std::exit(1);
  }

  out->push_back(MustRun(deployment, spec, "churn100k"));
  PrintSummary(out->back());
  bool accounting_ok = CheckTcpAccounting(out->back());

  const auto& ins =
      out->back().op_classes[static_cast<size_t>(load::OpClass::kInsert)];
  const auto& del =
      out->back().op_classes[static_cast<size_t>(load::OpClass::kDelete)];
  double ratio = ins.latency.PercentileNs(99.0) > 0.0
                     ? del.latency.PercentileNs(99.0) /
                           ins.latency.PercentileNs(99.0)
                     : 0.0;
  bool gate_ok = ratio <= 5.0;
  std::printf("churn delete p99 / insert p99: %.2fx (gate: <= 5x) %s\n", ratio,
              gate_ok ? "PASS" : "FAIL");
  return gate_ok && accounting_ok;
}

/// The adversarial traffic sweep: capture every scenario's wire traffic,
/// run the query-recovery attack, write the deterministic privacy report.
/// The pass/fail judgment lives in tools/check_privacy.py (fresh vs
/// committed baseline); here only "the attack ran and observed traffic"
/// is enforced.
int RunAttackBench(const Flags& flags) {
  auto report = attack::RunAttackSweep(attack::DefaultScenarios());
  if (!report.ok()) {
    std::fprintf(stderr, "attack sweep failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  bool ok = true;
  for (const attack::ScenarioResult& r : report->configs) {
    std::printf(
        "%-24s lists=%5zu observed=%5zu queries=%6llu acc=%.3f prior=%.3f "
        "amp=%6.2f balanced=%.4f\n",
        r.name.c_str(), r.plan_lists, r.observed_lists,
        static_cast<unsigned long long>(r.observed_queries),
        r.recovery.accuracy, r.recovery.prior_accuracy,
        r.recovery.amplification, r.recovery.balanced_accuracy);
    if (r.observed_queries == 0 || r.observed_lists == 0) {
      std::printf("%-24s attack gate: FAIL (tap observed no query traffic)\n",
                  r.name.c_str());
      ok = false;
    }
  }
  std::ofstream file(flags.attack_out, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 flags.attack_out.c_str());
    return 1;
  }
  file << report->ToJson() << "\n";
  file.close();
  std::printf("wrote %s (%zu configs)\n", flags.attack_out.c_str(),
              report->configs.size());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (flags.attack) return RunAttackBench(flags);

  std::vector<load::LoadReport> reports;
  bool gates_ok = true;
  if (flags.spec == "ci") {
    gates_ok = RunMixedConfigs(flags, &reports);
    gates_ok = RunClusterConfig(flags, /*kill_one_shard=*/false, &reports) &&
               gates_ok;
    gates_ok = RunChurnConfig(flags, /*preload=*/100000, &reports) && gates_ok;
    gates_ok = RunHiconnConfig(flags, &reports) && gates_ok;
  } else if (flags.spec == "hiconn") {
    gates_ok = RunHiconnConfig(flags, &reports);
  } else if (flags.spec == "cluster") {
    gates_ok = RunClusterConfig(flags, /*kill_one_shard=*/false, &reports);
  } else if (flags.spec == "cluster-failover") {
    gates_ok = RunClusterConfig(flags, /*kill_one_shard=*/true, &reports);
  } else if (flags.spec == "churn") {
    gates_ok = RunChurnConfig(flags, /*preload=*/100000, &reports);
  } else if (flags.spec == "default") {
    load::LoadSpec spec = MixedSpec(flags);
    auto pipeline = BuildDeploymentPipeline(
        flags, flags.shards == 0 ? 1 : flags.shards, "single");
    reports.push_back(MustRun(load::DeploymentFromPipeline(pipeline.get()),
                              spec, "single"));
    PrintSummary(reports.back());
    gates_ok = CheckTcpAccounting(reports.back());
  } else {
    std::fprintf(stderr,
                 "unknown --spec=%s (want "
                 "ci|churn|cluster|cluster-failover|hiconn|default)\n",
                 flags.spec.c_str());
    return 2;
  }

  std::string json = "{\"bench\":\"loadtest\",\"spec\":\"" + flags.spec +
                     "\",\"configs\":[";
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) json.push_back(',');
    json += reports[i].ToJson();
  }
  json += "]}\n";

  std::ofstream file(flags.out, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for writing\n", flags.out.c_str());
    return 1;
  }
  file << json;
  file.close();
  std::printf("wrote %s (%zu configs)\n", flags.out.c_str(), reports.size());
  return gates_ok ? 0 : 1;
}
