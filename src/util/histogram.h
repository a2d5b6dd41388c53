// Linear and logarithmic histograms, plus a latency histogram for the load
// harness.
//
// The paper presents term-frequency distributions on log-log plots
// (Figures 4 and 5); LogHistogram produces exactly those series.
// LatencyHistogram records operation latencies into geometrically spaced
// nanosecond buckets; the load driver (src/load) keeps one per worker per
// op class (single-writer, so no locking) and merges them into the final
// report.

#ifndef ZERBERR_UTIL_HISTOGRAM_H_
#define ZERBERR_UTIL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zr {

/// One histogram bucket: [lo, hi) and the number of observations in it.
struct HistogramBucket {
  double lo = 0.0;
  double hi = 0.0;
  uint64_t count = 0;

  /// Geometric midpoint, suitable as the x-coordinate on a log axis.
  double GeometricMid() const;
};

/// Fixed-width linear histogram over [lo, hi). Out-of-range samples clamp to
/// the first/last bucket.
class LinearHistogram {
 public:
  /// Creates `buckets` equal-width buckets spanning [lo, hi). Requires
  /// lo < hi and buckets >= 1.
  LinearHistogram(double lo, double hi, size_t buckets);

  /// Records one observation.
  void Add(double value);

  /// Bucket descriptors in ascending order.
  std::vector<HistogramBucket> Buckets() const;

  /// Total observations recorded.
  uint64_t TotalCount() const { return total_; }

 private:
  double lo_, hi_, width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Histogram with geometrically spaced bucket edges, for power-law data.
/// Values below `lo` clamp into the first bucket.
class LogHistogram {
 public:
  /// Buckets span [lo, hi) with `buckets_per_decade` buckets per factor of
  /// 10. Requires 0 < lo < hi.
  LogHistogram(double lo, double hi, size_t buckets_per_decade);

  /// Records one observation (values <= 0 are ignored).
  void Add(double value);

  /// Bucket descriptors in ascending order. Empty buckets are included.
  std::vector<HistogramBucket> Buckets() const;

  /// Buckets with nonzero counts only (the usual plot input).
  std::vector<HistogramBucket> NonEmptyBuckets() const;

  uint64_t TotalCount() const { return total_; }

 private:
  double log_lo_, log_step_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// Renders buckets as "x y" rows (geometric mid, count), one per line —
/// ready for a log-log plot such as the paper's Figures 4-5.
std::string FormatLogLogSeries(const std::vector<HistogramBucket>& buckets);

/// Latency histogram over a fixed geometric nanosecond grid.
///
/// Every instance shares the same geometry ([kMinNs, kMaxNs) at
/// kBucketsPerDecade buckets per decade), so any two instances can be
/// merged. Values below the grid clamp into the first bucket and values at
/// or above it saturate into the last one; exact min/max/sum are tracked on
/// the side so single-sample and tail percentiles stay exact at the edges.
///
/// Not internally synchronized: intended as a single-writer structure (one
/// per load worker per op class) merged after the workers join.
class LatencyHistogram {
 public:
  /// Grid: [100ns, 10^11ns) — 9 decades at 40 buckets/decade, i.e. about
  /// 5.9% relative bucket width (comfortably inside the 25% regression
  /// thresholds the perf gate applies to p99).
  static constexpr double kMinNs = 100.0;
  static constexpr size_t kDecades = 9;
  static constexpr size_t kBucketsPerDecade = 40;
  static constexpr size_t kNumBuckets = kDecades * kBucketsPerDecade;

  LatencyHistogram();

  /// A histogram holding the given cells: `counts` (kNumBuckets of them)
  /// and the exact sum, min and max of the samples they count. This is how
  /// a multi-writer recorder (obs::Histogram) hands out a snapshot.
  LatencyHistogram(std::vector<uint64_t> counts, uint64_t sum_ns,
                   uint64_t min_ns, uint64_t max_ns);

  /// Records one latency observation in nanoseconds.
  void Add(uint64_t nanos);

  /// The bucket Add files `nanos` under.
  static size_t BucketIndex(uint64_t nanos);

  /// Observations in bucket `i` (i < kNumBuckets).
  uint64_t BucketCount(size_t i) const { return counts_[i]; }

  /// Folds another histogram (same fixed geometry) into this one.
  void Merge(const LatencyHistogram& other);

  /// Observations recorded.
  uint64_t TotalCount() const { return total_; }

  /// Exact extrema / mean of the recorded samples (0 when empty).
  uint64_t MinNs() const { return total_ == 0 ? 0 : min_; }
  uint64_t MaxNs() const { return max_; }
  double MeanNs() const;

  /// Exact sum of all recorded samples in nanoseconds.
  uint64_t SumNs() const { return sum_; }

  /// Value at percentile `p` in [0, 100], in nanoseconds. Returns the upper
  /// edge of the bucket holding the sample of rank ceil(p/100 * count),
  /// clamped to the exact [min, max] range (so an empty histogram reports 0
  /// and a single-sample histogram reports that sample at every
  /// percentile). Deterministic for a deterministic sample sequence.
  double PercentileNs(double p) const;

  /// Lower edge of bucket `i` (upper edge of bucket i-1).
  static double BucketEdge(size_t i);

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace zr

#endif  // ZERBERR_UTIL_HISTOGRAM_H_
