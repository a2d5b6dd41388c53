// shard_server: one cluster shard as a standalone process.
//
// Serves shard --shard of a --shards-wide cluster over TCP: a
// store::DurableShard (WAL + snapshot rotation + crash recovery for exactly
// this shard's slice of the index, stored in <data-dir>/shard-0000) behind
// a net::TcpServer. cluster::RouterService fans a logical index out over N
// of these processes; the routing math (zerber/routing.h) guarantees the
// ensemble is byte-identical to one in-process ShardedIndexService built
// from the same seed, and shard s holds the same bytes as partition s of
// an N-shard store::DurableIndexService.
//
// Readiness protocol: once serving, prints "listening on <host:port>" on
// stdout (flushed) — cluster::ShardProcess::Start blocks on that line, so
// --listen 127.0.0.1:0 (ephemeral port) works without races.
//
// Shutdown: SIGINT/SIGTERM drain gracefully — stop accepting, disconnect
// every session, flush the WAL, print final stats, exit 0. SIGKILL is the
// crash case the WAL exists for: restart with the same flags and recovery
// replays the acked prefix.
//
// Usage:
//   shard_server --shard=0 --shards=4 --lists=64 --data-dir=/tmp/s0
//                [--listen=127.0.0.1:0] [--seed=1] [--placement=trs-sorted]
//                [--sync=group-commit] [--snapshot-threshold=4194304]
//
// --seed is the BACKEND seed (what ShardedIndexService::Options::seed would
// receive); the per-shard stream is derived internally via ShardSeed.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/messages.h"
#include "net/tcp.h"
#include "obs/registry.h"
#include "obs/slow_op_log.h"
#include "store/durable_service.h"
#include "zerber/zerber_index.h"

namespace {

// Self-pipe carrying shutdown signals to the main thread. write(2) is
// async-signal-safe; everything else happens outside the handler.
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*signo*/) {
  char byte = 1;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard=S --shards=N --lists=L --data-dir=DIR\n"
      "          [--listen=HOST:PORT] [--seed=U64] "
      "[--placement=trs-sorted|random]\n"
      "          [--sync=none|group-commit] "
      "[--snapshot-threshold=BYTES]\n"
      "          [--slow-op-ns=NANOS] [--loops=N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zr;

  store::DurableOptions options;
  std::string listen_addr = "127.0.0.1:0";
  std::string shard = "0";
  std::string shards = "1";
  std::string lists;
  std::string seed = "1";
  std::string placement = "trs-sorted";
  std::string sync = "group-commit";
  std::string threshold;
  std::string slow_op_ns;
  std::string loops = "1";

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--shard", &shard)) {
    } else if (ParseFlag(argv[i], "--shards", &shards)) {
    } else if (ParseFlag(argv[i], "--lists", &lists)) {
    } else if (ParseFlag(argv[i], "--listen", &listen_addr)) {
    } else if (ParseFlag(argv[i], "--data-dir", &options.data_dir)) {
    } else if (ParseFlag(argv[i], "--seed", &seed)) {
    } else if (ParseFlag(argv[i], "--placement", &placement)) {
    } else if (ParseFlag(argv[i], "--sync", &sync)) {
    } else if (ParseFlag(argv[i], "--snapshot-threshold", &threshold)) {
    } else if (ParseFlag(argv[i], "--slow-op-ns", &slow_op_ns)) {
    } else if (ParseFlag(argv[i], "--loops", &loops)) {
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  if (lists.empty() || options.data_dir.empty()) return Usage(argv[0]);
  size_t shard_index = std::strtoull(shard.c_str(), nullptr, 10);
  options.num_shards = std::strtoull(shards.c_str(), nullptr, 10);
  options.num_lists = std::strtoull(lists.c_str(), nullptr, 10);
  options.seed = std::strtoull(seed.c_str(), nullptr, 10);
  if (!threshold.empty()) {
    options.snapshot_threshold_bytes =
        std::strtoull(threshold.c_str(), nullptr, 10);
  }
  if (!slow_op_ns.empty()) {
    // Arm the slow-op ring: ops at or above the threshold are recorded
    // (list ids, handles, latencies — never terms) and surface as the
    // zr_slow_ops_total counter on the scrape plane.
    obs::SlowOpLog::Global().set_threshold_ns(
        std::strtoull(slow_op_ns.c_str(), nullptr, 10));
  }

  if (placement == "trs-sorted") {
    options.placement = zerber::Placement::kTrsSorted;
  } else if (placement == "random") {
    options.placement = zerber::Placement::kRandomPlacement;
  } else {
    std::fprintf(stderr, "bad --placement: %s\n", placement.c_str());
    return Usage(argv[0]);
  }

  if (sync == "none") {
    options.sync_mode = store::WalSyncMode::kNone;
  } else if (sync == "group-commit") {
    options.sync_mode = store::WalSyncMode::kGroupCommit;
  } else {
    std::fprintf(stderr, "bad --sync: %s\n", sync.c_str());
    return Usage(argv[0]);
  }

  // Install the shutdown plumbing before serving: a supervisor may SIGTERM
  // us at any point after the readiness line.
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // broken client sockets surface as EPIPE

  auto opened = store::DurableShard::Open(
      options, shard_index,
      store::DurableIndexService::PartitionDir(options.data_dir, 0));
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  store::DurableShard& service = **opened;

  // --loops=N: event-loop threads of the serving socket layer. One loop
  // reproduces the historical single-threaded server; a busy shard scales
  // with cores (sizing guidance in docs/OPERATIONS.md). ServerConfig
  // validates before any socket is touched, so a bad flag fails here with
  // a typed status instead of a half-started server.
  net::ServerConfig server_config =
      net::ServerConfig::At(listen_addr)
          .WithLoops(std::strtoull(loops.c_str(), nullptr, 10))
          .WithServerId(shard_index);
  // v2 scrape plane: the whole metrics registry (index histograms, WAL
  // append latency, TCP counters, slow-op count) rides along in Prometheus
  // text form. Metric names and numbers only — the sealed-telemetry
  // invariant holds on this path by construction.
  server_config.WithStatsSource([&service] {
    return net::StatsResponse{service.server().stats(),
                              obs::Registry::Global().RenderPrometheus()};
  });
  // Runs on the owning loop's thread under the server-wide writer dispatch
  // gate — no other frame is in flight on any loop, the quiescence the ACL
  // surface requires. Idempotent (the shard skips a change it already
  // reflects), so the router may retry it.
  server_config.WithAclHandler(
      [&service](const net::AclRequest& acl) { return service.Acl(acl); });

  auto started = net::TcpServer::Start(&service, std::move(server_config));
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  net::TcpServer& server = **started;

  // The readiness line ShardProcess::Start waits for. Flush: stdout is a
  // pipe (block-buffered) when supervised.
  std::printf("listening on %s\n", server.address().c_str());
  std::fflush(stdout);

  // Park until SIGINT/SIGTERM.
  for (;;) {
    pollfd p;
    p.fd = g_signal_pipe[0];
    p.events = POLLIN;
    p.revents = 0;
    int n = ::poll(&p, 1, -1);
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) break;
  }

  // Graceful drain: no new frames, drop every session, then make the WAL
  // durable before exiting (matters for --sync=none).
  server.DisconnectAll();
  server.Stop();
  Status flushed = service.Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "wal flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }

  net::TcpServerStats stats = server.stats();
  std::printf("shard %llu shutdown: %llu frames over %llu connection(s), "
              "%llu bytes in, %llu bytes out\n",
              static_cast<unsigned long long>(shard_index),
              static_cast<unsigned long long>(stats.frames_served),
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.bytes_read),
              static_cast<unsigned long long>(stats.bytes_written));
  std::fflush(stdout);
  return 0;
}
