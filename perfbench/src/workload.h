// The benchmark's workloads and the run of one of them: set-up (timed and
// repeated), the correctness gate, the open-loop windows, the max-rate
// search, and the metrics computed from what the windows recorded.

#ifndef ZERBERR_PERFBENCH_WORKLOAD_H_
#define ZERBERR_PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "deployment.h"
#include "load/load_spec.h"

namespace zr::perfbench {

struct WorkloadSpec {
  const char* name = "";
  Backend backend = Backend::kSearch;

  /// Offered rate of the measured window, ops/s.
  double rate = 0.0;

  /// p99 limit of the max-rate search, ms. DESIGN.md gives the measured
  /// light-load p99 it sits above and the max rate it yields.
  double latency_limit_ms = 0.0;

  /// Op-class weights, indexed by load::OpClass. Inserts and deletes carry
  /// equal weight so the index keeps its size.
  std::array<double, load::kNumOpClasses> mix = {};

  /// Churn elements inserted at set-up so deletes always find a handle.
  size_t seed_handles = 0;

  /// WAL bytes per snapshot rotation (durable backends).
  uint64_t snapshot_threshold_bytes = 0;
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Names of every workload.
std::vector<std::string> WorkloadNames();

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the durable stores; emptied by the run.
  std::string work_dir;
  /// The shard_server binary.
  std::string shard_server;
  /// Where a traced run writes its spans and per-layer table.
  std::string trace_dir;
};

/// Runs `spec` and prints its metric tables; the last line of standard
/// output is a JSON object with `correct`, `attempted`, `failed` and
/// `metrics`. Returns the process exit code: 0 only when every correctness
/// check passed.
int RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace zr::perfbench

#endif  // ZERBERR_PERFBENCH_WORKLOAD_H_
