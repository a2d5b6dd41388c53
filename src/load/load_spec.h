// LoadSpec: the single seeded description of a synthetic mixed workload.
//
// The paper evaluates Zerber+R under a Zipf query workload (Sections
// 6.5-6.6); this spec generalizes that workload into the mixed traffic a
// production deployment of the serving stack sees: Zipf-distributed top-k
// queries through both the plain-Zerber and Zerber+R client flows, document
// insert/delete churn at the service layer, issued by a population of
// multi-group users with distinct ACLs. Everything the driver does — op
// classes, term choices, users, pacing — derives deterministically from
// this one struct, so a fixed seed reproduces the identical op sequence.

#ifndef ZERBERR_LOAD_LOAD_SPEC_H_
#define ZERBERR_LOAD_LOAD_SPEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace zr::load {

/// The operation classes a workload mixes. Each gets its own latency
/// histogram, throughput and error accounting in the LoadReport.
enum class OpClass : size_t {
  kQueryZerberR = 0,  ///< Zerber+R top-k (doubling follow-up protocol)
  kQueryZerber = 1,   ///< plain Zerber top-k (whole-list download)
  kInsert = 2,        ///< seal + upload one posting element
  kDelete = 3,        ///< delete a previously inserted element by handle
};

inline constexpr size_t kNumOpClasses = 4;

/// Stable snake_case name of an op class (JSON keys, CLI flags).
const char* OpClassName(OpClass c);

/// How the driver paces its workers.
enum class LoopMode {
  kClosed,  ///< each worker issues the next op as soon as the last returns
  kOpen,    ///< workers issue ops on a fixed schedule (target offered rate)
};

/// "closed" / "open".
const char* LoopModeName(LoopMode mode);

/// Full description of one load run. Defaults give a small mixed smoke
/// workload; presets for the CI gate live in bench/loadgen.cc.
struct LoadSpec {
  /// Master seed; every worker derives its own deterministic stream.
  uint64_t seed = 1;

  /// Concurrent load workers (each owns a transport, clients, histograms).
  size_t workers = 4;

  /// Pacing discipline; kOpen requires target_rate > 0.
  LoopMode mode = LoopMode::kClosed;

  /// Measured ops per worker (op-count bound). 0 means run until
  /// duration_ms elapses instead; exactly one bound must be set.
  uint64_t ops_per_worker = 1000;

  /// Wall-clock bound in milliseconds (used when ops_per_worker == 0).
  uint64_t duration_ms = 0;

  /// Total offered rate in ops/second across all workers (open loop only).
  double target_rate = 0.0;

  /// Relative mix weights by op class, indexed by OpClass. Need not sum to
  /// 1; must be non-negative with a positive sum.
  std::array<double, kNumOpClasses> mix = {0.45, 0.15, 0.25, 0.15};

  /// Zipf exponent of term popularity for queries and inserts (the paper's
  /// query workload, Section 6.1.3).
  double zipf_s = 0.9;

  /// Top-k requested by query ops.
  size_t top_k = 10;

  /// Initial response size b of the Zerber+R protocol.
  size_t initial_response_size = 10;

  /// Mean terms per Zerber+R query (the paper's query log averages 2.4).
  /// 1.0 — the default — keeps the historical single-term op stream
  /// byte-identical: no extra RNG draws happen at all. Above 1.0 each
  /// Zerber+R query draws additional Zipf term ranks and issues each
  /// round's requests as one batched MultiFetch; its initial round is the
  /// co-occurrence observable the adversarial traffic suite attacks.
  /// Echoed into the report's spec JSON only when != 1.0, so existing
  /// perf baselines compare unchanged.
  double terms_per_query_mean = 1.0;

  /// Load-user population: num_users users, each a member of
  /// groups_per_user of the deployment's groups (distinct overlapping
  /// subsets, so ACL filtering is exercised on every path).
  size_t num_users = 8;
  size_t groups_per_user = 2;

  /// Unmeasured inserts each worker performs before the clock starts, so
  /// delete ops have handles to draw from the moment measurement begins.
  size_t warmup_inserts = 32;

  /// Trace 1 in every trace_sample measured ops per worker (0 disables
  /// tracing). A sampled op runs under a deterministic trace id
  /// (obs::DeriveTraceId of seed/worker/op-index); its spans — client
  /// seal, transport, router fanout, shard serve, WAL append — are drained
  /// into the report's "obs" block. Observability overlay only: the op
  /// stream is identical for every value, and the knob is deliberately NOT
  /// echoed into the report's "spec" JSON so perf baselines compare across
  /// sampling settings.
  uint64_t trace_sample = 0;

  /// Slow-op log threshold in nanoseconds applied to this process's
  /// obs::SlowOpLog for the measured phase (0 leaves the log disabled).
  /// Same overlay rule as trace_sample: not part of the workload, not
  /// echoed into the spec JSON.
  uint64_t slow_op_threshold_ns = 0;

  /// Validates the invariants above.
  Status Validate() const;
};

}  // namespace zr::load

#endif  // ZERBERR_LOAD_LOAD_SPEC_H_
