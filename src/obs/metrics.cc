#include "obs/metrics.h"

#include <utility>
#include <vector>

namespace zr::obs {

void Histogram::Record(uint64_t nanos) {
  counts_[LatencyHistogram::BucketIndex(nanos)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t seen = min_.load(std::memory_order_relaxed);
  while (nanos < seen &&
         !min_.compare_exchange_weak(seen, nanos, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_.compare_exchange_weak(seen, nanos, std::memory_order_relaxed)) {
  }
}

LatencyHistogram Histogram::Snapshot() const {
  std::vector<uint64_t> counts(counts_.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t min = min_.load(std::memory_order_relaxed);
  return LatencyHistogram(std::move(counts),
                          sum_.load(std::memory_order_relaxed),
                          min == UINT64_MAX ? 0 : min,
                          max_.load(std::memory_order_relaxed));
}

}  // namespace zr::obs
