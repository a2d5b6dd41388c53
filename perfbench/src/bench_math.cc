#include "bench_math.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace zr::perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples.
size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  double clamped = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

class Steady final : public Clock {
 public:
  uint64_t NowNs() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void SleepUntil(uint64_t deadline_ns) override {
    uint64_t now = NowNs();
    if (deadline_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
    }
  }
};

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) { return n - NearestRank(n, p); }

bool PercentileSupported(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 50.0}) {
    if (PercentileSupported(n, p)) return p;
  }
  return 0.0;
}

uint64_t SelfTime(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  uint64_t covered = 0;
  uint64_t cursor = parent.start;  // everything before it is accounted for
  for (const Interval& c : children) {
    uint64_t lo = std::max(c.start, cursor);
    uint64_t hi = std::min(c.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (parent.end - parent.start) - covered;
}

Clock& SteadyClock() {
  static Steady clock;
  return clock;
}

ScheduleRunner::ScheduleRunner(std::vector<uint64_t> due_ns, Clock* clock,
                               uint64_t abort_late_ns)
    : timings_(due_ns.size()), clock_(clock), abort_late_ns_(abort_late_ns) {
  for (size_t i = 0; i < due_ns.size(); ++i) timings_[i].due = due_ns[i];
}

void ScheduleRunner::RunWorker(const std::function<void(size_t op)>& execute) {
  while (!aborted()) {
    size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= timings_.size()) return;
    // Each slot is written by the one worker that claimed it.
    OpTiming& t = timings_[i];
    clock_->SleepUntil(t.due);
    t.start = std::max(clock_->NowNs(), t.due);
    if (abort_late_ns_ != 0 && t.LateNs() > abort_late_ns_) {
      Abort();
      return;
    }
    execute(i);
    t.end = std::max(clock_->NowNs(), t.start);
    t.ran = true;
  }
}

double FindMaxRate(const RateSearchOptions& options,
                   const std::function<bool(double rate)>& probe,
                   std::vector<RateProbe>* trail) {
  double pass = 0.0;  // highest rate that passed
  double fail = 0.0;  // lowest rate that failed; 0 = none yet
  double rate = std::clamp(options.start_rate, options.min_rate,
                           options.max_rate);
  for (size_t n = 0; n < options.max_probes; ++n) {
    bool ok = probe(rate);
    if (trail != nullptr) trail->push_back({rate, ok});
    if (ok) {
      pass = std::max(pass, rate);
    } else {
      fail = fail == 0.0 ? rate : std::min(fail, rate);
    }
    if (fail == 0.0) {
      if (pass >= options.max_rate) break;  // cannot go higher
      rate = std::min(pass * options.growth, options.max_rate);
    } else if (pass == 0.0) {
      rate = fail / options.growth;  // nothing passed yet: descend
      if (rate < options.min_rate) break;
    } else {
      if ((fail - pass) / pass <= options.resolution) break;
      rate = 0.5 * (pass + fail);
    }
  }
  return pass;
}

}  // namespace zr::perfbench
