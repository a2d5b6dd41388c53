#include "util/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

namespace zr {

double HistogramBucket::GeometricMid() const {
  if (lo <= 0.0) return hi / 2.0;
  return std::sqrt(lo * hi);
}

LinearHistogram::LinearHistogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(lo < hi);
  assert(buckets >= 1);
}

void LinearHistogram::Add(double value) {
  ++total_;
  if (value < lo_) {
    ++counts_.front();
    return;
  }
  size_t idx = static_cast<size_t>((value - lo_) / width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  ++counts_[idx];
}

std::vector<HistogramBucket> LinearHistogram::Buckets() const {
  std::vector<HistogramBucket> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i].lo = lo_ + width_ * static_cast<double>(i);
    out[i].hi = lo_ + width_ * static_cast<double>(i + 1);
    out[i].count = counts_[i];
  }
  return out;
}

LogHistogram::LogHistogram(double lo, double hi, size_t buckets_per_decade) {
  assert(lo > 0.0 && lo < hi);
  assert(buckets_per_decade >= 1);
  log_lo_ = std::log10(lo);
  log_step_ = 1.0 / static_cast<double>(buckets_per_decade);
  double decades = std::log10(hi) - log_lo_;
  size_t n = static_cast<size_t>(std::ceil(decades / log_step_));
  counts_.assign(std::max<size_t>(n, 1), 0);
}

void LogHistogram::Add(double value) {
  if (value <= 0.0) return;
  ++total_;
  double pos = (std::log10(value) - log_lo_) / log_step_;
  long idx = static_cast<long>(std::floor(pos));
  if (idx < 0) idx = 0;
  if (idx >= static_cast<long>(counts_.size())) {
    idx = static_cast<long>(counts_.size()) - 1;
  }
  ++counts_[static_cast<size_t>(idx)];
}

std::vector<HistogramBucket> LogHistogram::Buckets() const {
  std::vector<HistogramBucket> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i].lo = std::pow(10.0, log_lo_ + log_step_ * static_cast<double>(i));
    out[i].hi = std::pow(10.0, log_lo_ + log_step_ * static_cast<double>(i + 1));
    out[i].count = counts_[i];
  }
  return out;
}

std::vector<HistogramBucket> LogHistogram::NonEmptyBuckets() const {
  std::vector<HistogramBucket> out = Buckets();
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const HistogramBucket& b) { return b.count == 0; }),
            out.end());
  return out;
}

LatencyHistogram::LatencyHistogram() : counts_(kNumBuckets, 0) {}

double LatencyHistogram::BucketEdge(size_t i) {
  return kMinNs * std::pow(10.0, static_cast<double>(i) /
                                     static_cast<double>(kBucketsPerDecade));
}

LatencyHistogram::LatencyHistogram(std::vector<uint64_t> counts,
                                   uint64_t sum_ns, uint64_t min_ns,
                                   uint64_t max_ns)
    : counts_(std::move(counts)), sum_(sum_ns), min_(min_ns), max_(max_ns) {
  assert(counts_.size() == kNumBuckets);
  for (uint64_t c : counts_) total_ += c;
}

size_t LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (static_cast<double>(nanos) < kMinNs) return 0;
  double pos = (std::log10(static_cast<double>(nanos)) - std::log10(kMinNs)) *
               static_cast<double>(kBucketsPerDecade);
  long bucket = static_cast<long>(std::floor(pos));
  if (bucket < 0) bucket = 0;
  // Values past the grid saturate into the last bucket; min_/max_ keep the
  // exact extremes, so tail percentiles clamp back to the true maximum.
  if (bucket >= static_cast<long>(kNumBuckets)) {
    bucket = static_cast<long>(kNumBuckets) - 1;
  }
  return static_cast<size_t>(bucket);
}

void LatencyHistogram::Add(uint64_t nanos) {
  if (total_ == 0 || nanos < min_) min_ = nanos;
  if (nanos > max_) max_ = nanos;
  ++total_;
  sum_ += nanos;
  ++counts_[BucketIndex(nanos)];
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.total_ == 0) return;
  if (total_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  total_ += other.total_;
  sum_ += other.sum_;
  for (size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
}

double LatencyHistogram::MeanNs() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(total_);
}

double LatencyHistogram::PercentileNs(double p) const {
  if (total_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total_)));
  if (rank < 1) rank = 1;
  // The top rank is the maximum exactly — no bucket-edge approximation (and
  // the saturating last bucket would otherwise under-report it).
  if (rank >= total_) return static_cast<double>(max_);
  uint64_t seen = 0;
  size_t bucket = kNumBuckets - 1;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      bucket = i;
      break;
    }
  }
  double value = BucketEdge(bucket + 1);  // conservative: bucket upper edge
  value = std::min(value, static_cast<double>(max_));
  value = std::max(value, static_cast<double>(MinNs()));
  return value;
}

std::string FormatLogLogSeries(const std::vector<HistogramBucket>& buckets) {
  std::string out;
  char line[64];
  for (const auto& b : buckets) {
    std::snprintf(line, sizeof(line), "%.6g %llu\n", b.GeometricMid(),
                  static_cast<unsigned long long>(b.count));
    out += line;
  }
  return out;
}

}  // namespace zr
