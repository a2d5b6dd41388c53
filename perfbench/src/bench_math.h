// The benchmark's own arithmetic, kept apart from the deployments so it can
// be tested in isolation (tests/bench_math_test.cc):
//
//  * exact percentiles over raw samples, and the rule for which
//    percentiles a sample supports;
//  * self time of a span whose children may overlap;
//  * the open-loop schedule runner, which times every op from its due time
//    and records how late the generator started it;
//  * the search for the highest offered rate that meets a latency limit.

#ifndef ZERBERR_PERFBENCH_BENCH_MATH_H_
#define ZERBERR_PERFBENCH_BENCH_MATH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace zr::perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides its value.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (p in [0, 100]) of raw samples: the value at
/// rank ceil(p/100 * n) of the sorted samples. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// True when n samples put at least kMinSamplesBeyond beyond the p-th
/// percentile.
bool PercentileSupported(size_t n, double p);

/// The highest of 99.9, 99, 98, 95, 90 and 50 that n samples support, or
/// 0 when none is.
double HighestSupportedPercentile(size_t n);

/// A closed interval on one clock, in nanoseconds.
struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

/// Nanoseconds of `parent` covered by none of `children`. Children may
/// overlap each other (fan-out) and stick out of the parent; only the part
/// of their union inside the parent is subtracted.
uint64_t SelfTime(Interval parent, std::vector<Interval> children);

/// Time source of the schedule runner; tests inject a fake one.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual uint64_t NowNs() = 0;
  /// Returns no earlier than `deadline_ns` on this clock.
  virtual void SleepUntil(uint64_t deadline_ns) = 0;
};

/// std::chrono::steady_clock.
Clock& SteadyClock();

/// When one op was due, started and finished.
struct OpTiming {
  uint64_t due = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  bool ran = false;

  /// Latency as a user sees it: from the due time, so a stall that delays
  /// later ops is charged to them.
  uint64_t LatencyNs() const { return end - due; }
  /// How late the generator started the op.
  uint64_t LateNs() const { return start - due; }
};

/// Runs a fixed schedule of ops open-loop across any number of worker
/// threads: each worker claims the next op in schedule order, waits for
/// its due time and executes it. A worker busy with a slow op does not
/// hold back the schedule; the ops it could not start in time are started
/// late by whichever worker frees up first, and that wait counts in their
/// latency.
class ScheduleRunner {
 public:
  /// `due_ns[i]` is op i's due time on `clock`, non-decreasing. A nonzero
  /// `abort_late_ns` aborts the run once an op would start that late.
  ScheduleRunner(std::vector<uint64_t> due_ns, Clock* clock,
                 uint64_t abort_late_ns = 0);

  ScheduleRunner(const ScheduleRunner&) = delete;
  ScheduleRunner& operator=(const ScheduleRunner&) = delete;

  /// The body of one worker thread. `execute(i)` runs op i.
  void RunWorker(const std::function<void(size_t op)>& execute);

  /// Stops handing out ops (ops already started still finish).
  void Abort() { aborted_.store(true, std::memory_order_relaxed); }
  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

  /// Per-op timings, valid once every worker has returned.
  const std::vector<OpTiming>& timings() const { return timings_; }

 private:
  std::vector<OpTiming> timings_;
  Clock* clock_;
  uint64_t abort_late_ns_;
  std::atomic<size_t> next_{0};
  std::atomic<bool> aborted_{false};
};

/// Search for the highest offered rate that passes `probe`.
struct RateSearchOptions {
  double start_rate = 100.0;  ///< first rate probed (ops/s)
  double min_rate = 1.0;      ///< give up below this
  double max_rate = 1e6;      ///< never probe above this
  double growth = 2.0;        ///< factor while no rate has failed yet
  double resolution = 0.05;   ///< stop once (fail - pass) / pass <= this
  size_t max_probes = 12;     ///< hard bound on probe windows
};

struct RateProbe {
  double rate = 0.0;
  bool ok = false;
};

/// Grows the rate geometrically until a probe fails (or max_rate passes),
/// then bisects between the highest pass and the lowest fail. Returns the
/// highest rate that passed, 0 when none did. Runs at most
/// options.max_probes probes whatever `probe` answers; every probe made is
/// appended to `trail` when it is non-null.
double FindMaxRate(const RateSearchOptions& options,
                   const std::function<bool(double rate)>& probe,
                   std::vector<RateProbe>* trail);

}  // namespace zr::perfbench

#endif  // ZERBERR_PERFBENCH_BENCH_MATH_H_
