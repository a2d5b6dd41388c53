// LoadReport: machine-readable result of one load run.
//
// Everything the perf-regression gate consumes lives here: per-op-class
// throughput, latency percentiles (from merged per-worker
// util::LatencyHistogram), error counts, transfer accounting, and the
// server-side ServerStats snapshot (including the per-op latency sums, so
// server-side and client-side timings can be cross-checked). JSON
// serialization is deterministic — fixed key order, fixed float formatting
// — so a fixed-seed run with a deterministic clock emits byte-identical
// reports, and diffs of BENCH_loadtest.json are meaningful.

#ifndef ZERBERR_LOAD_REPORT_H_
#define ZERBERR_LOAD_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "load/load_spec.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "util/histogram.h"
#include "zerber/zerber_index.h"

namespace zr::load {

/// Aggregate of one trace stage over every sampled op (the report's "obs"
/// block).
struct ObsStageReport {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t max_ns = 0;
};

/// Stage-level latency attribution drained from the process tracer and
/// slow-op log after the measured phase. All-zero (and byte-stable in the
/// JSON) when LoadSpec::trace_sample == 0.
struct ObsReport {
  uint64_t traces = 0;  ///< distinct trace ids drained

  /// Traces carrying the full client -> router -> shard -> WAL chain
  /// (kClientOp + kRouterFanout + kShardServe + kWalAppend spans). Only
  /// traced mutations that cross a net::ShardRouter, a framed serving hop
  /// and a WAL can be complete by this definition — a cluster deployment,
  /// or a durable backend (any shard count, each one a router over durable
  /// shards) served over TCP; other deployments report 0.
  uint64_t complete_traces = 0;

  uint64_t spans = 0;          ///< span records drained
  uint64_t dropped_spans = 0;  ///< tracer ring overflow (sampling too hot)
  uint64_t slow_ops = 0;       ///< slow-op log entries over the threshold

  /// Per-stage aggregates, indexed by obs::Stage value - 1.
  std::array<ObsStageReport, obs::kNumStages> stages;

  /// One complete trace (smallest trace id, for determinism of choice)
  /// dumped span-by-span, so the report shows a real end-to-end timing
  /// decomposition. Empty when complete_traces == 0.
  uint64_t example_trace_id = 0;
  std::vector<obs::SpanRecord> example_spans;
};

/// Accounting of one op class over the whole run.
struct OpClassReport {
  /// Measured ops issued / succeeded / failed. A delete drawn while the
  /// worker's handle pool was empty is counted as skipped (nothing was
  /// sent), so attempted == ok + errors + skipped.
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t skipped = 0;

  /// Posting elements and bytes transferred server -> client by this class
  /// (queries; inserts/deletes count their response bytes).
  uint64_t elements = 0;
  uint64_t bytes = 0;

  /// Server round trips issued by this class (a Zerber+R query may use
  /// several).
  uint64_t exchanges = 0;

  /// Merged client-side latency distribution of every issued op of this
  /// class (ok and errored — a rejected request still cost a round trip;
  /// skipped deletes issue nothing and record nothing).
  LatencyHistogram latency;
};

/// Result of one load run against one deployment configuration.
struct LoadReport {
  /// Configuration label ("single", "sharded4", ...); set by the caller.
  std::string name;

  /// The spec the run executed (echoed into the JSON).
  LoadSpec spec;

  /// Measured wall time (driver clock) and totals across classes.
  double wall_seconds = 0.0;
  uint64_t total_ops = 0;       ///< ok ops, all classes
  double throughput = 0.0;      ///< total_ops / wall_seconds

  std::array<OpClassReport, kNumOpClasses> op_classes;

  /// Server-side counter deltas over the measured window.
  zerber::ServerStats server;

  /// Which transport the workers routed traffic through
  /// ("direct"/"tcp"); echoed into the JSON.
  std::string transport_kind;

  /// Transport traffic summed over all workers (measured window only).
  /// bytes_up/bytes_down are message *payload* bytes under every
  /// transport, so the two kinds are directly comparable.
  net::TransportStats transport;

  /// Real socket traffic (frame headers included) summed over all
  /// workers; zero unless the transport is tcp. The framing identity
  /// socket bytes == payload bytes + kFrameHeaderBytes * frames
  /// is asserted by loadgen after every tcp run.
  net::TcpSocketStats socket;

  /// Shard-router fault-handling counters over the measured window
  /// (retries, unavailable fast-fails, breaker opens, rejoins); all zero
  /// unless the deployment routes over a cluster::RouterService.
  cluster::RouterStats cluster;

  /// Stage-level trace attribution of the sampled ops (trace_sample > 0);
  /// all-zero otherwise.
  ObsReport obs;

  /// Throughput of one class (ok ops / wall_seconds).
  double ClassThroughput(OpClass c) const;

  /// Deterministic JSON object (no trailing newline).
  std::string ToJson() const;
};

}  // namespace zr::load

#endif  // ZERBERR_LOAD_REPORT_H_
