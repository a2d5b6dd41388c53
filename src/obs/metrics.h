// Metric primitives for the process-wide observability registry.
//
// Counter and Gauge are the write-side instruments handed out by
// obs::Registry (registry.h); Histogram is owned by the component it times
// and published through that component's collector. All three are
// lock-free on the hot path: relaxed atomics only, so instrumented code
// never takes a lock and a scrape racing a writer is well-defined (it
// reads a slightly stale but torn-free value per cell). Histogram files
// samples with util::LatencyHistogram's own bucket routine and snapshots
// into a LatencyHistogram, so its SumNs is exactly the sum of every
// recorded duration and its percentiles are the load driver's.
//
// Sealed-telemetry invariant (paper §3, §5.2): instruments carry numeric
// values only. Names and labels are chosen at instrumentation sites and
// must never be derived from terms, documents, or any plaintext; the
// sealed-boundary lint (tools/check_sealed.py) covers these TUs.

#ifndef ZERBERR_OBS_METRICS_H_
#define ZERBERR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "util/histogram.h"

namespace zr::obs {

/// Monotonically increasing counter. Lock-free; any thread may Add.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins gauge. Lock-free; any thread may Set.
class Gauge {
 public:
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(static_cast<uint64_t>(delta), std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Multi-writer latency histogram on util::LatencyHistogram's grid
/// ([100ns, 10^11ns), 40 buckets/decade — see histogram.h for why that
/// resolution suits the perf gate). Record is lock-free: relaxed fetch_add
/// per bucket plus CAS loops for the exact extrema. A concurrent Snapshot
/// sees each cell torn-free; cross-cell skew (count vs sum) is bounded by
/// in-flight Records and irrelevant for monitoring.
class Histogram {
 public:
  /// Records one latency observation in nanoseconds.
  void Record(uint64_t nanos);

  /// Exact sum of all recorded samples in nanoseconds (matches what a
  /// util::LatencyHistogram fed the same samples reports from SumNs()).
  uint64_t SumNs() const { return sum_.load(std::memory_order_relaxed); }

  /// Point-in-time copy; its count is the sum of the bucket counts.
  LatencyHistogram Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, LatencyHistogram::kNumBuckets> counts_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

}  // namespace zr::obs

#endif  // ZERBERR_OBS_METRICS_H_
