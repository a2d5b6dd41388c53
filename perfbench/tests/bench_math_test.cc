// Tests of the benchmark's own arithmetic: a wrong percentile, self time,
// due-time latency or a rate search that never ends would corrupt every
// number the benchmark reports.

#include "bench_math.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace zr::perfbench {
namespace {

TEST(PercentileTest, NearestRankOverRawSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50.0), 500.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100.0), 1000.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 1.0);
  // Order of the input does not matter.
  std::vector<double> reversed(samples.rbegin(), samples.rend());
  EXPECT_DOUBLE_EQ(Percentile(reversed, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 99.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
}

TEST(PercentileTest, ExactWhereBucketsWouldRound) {
  // Two close values a 5.9%-wide histogram bucket would merge.
  std::vector<double> samples(100, 1.00);
  samples[99] = 1.03;
  EXPECT_DOUBLE_EQ(Percentile(samples, 100.0), 1.03);
  EXPECT_DOUBLE_EQ(Percentile(samples, 99.0), 1.00);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 99.0));
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_FALSE(PercentileSupported(999, 99.0));
  EXPECT_TRUE(PercentileSupported(20, 50.0));
  EXPECT_FALSE(PercentileSupported(19, 50.0));
  EXPECT_FALSE(PercentileSupported(0, 50.0));

  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(999), 98.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(500), 98.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(SelfTimeTest, SequentialChildren) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {30, 50}}), 70u);
  EXPECT_EQ(SelfTime({0, 100}, {}), 100u);
}

TEST(SelfTimeTest, OverlappingFanOutChildrenCountOnce) {
  // Three shard calls of one MultiFetch run in parallel: their union, not
  // their sum, is what the parent waited for.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 60}, {20, 50}, {40, 70}}), 40u);
  // Identical children.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {10, 30}}), 80u);
  // Unsorted input, one child nested in another.
  EXPECT_EQ(SelfTime({0, 100}, {{60, 90}, {5, 40}, {10, 20}}), 35u);
}

TEST(SelfTimeTest, ChildrenOutsideTheParentAreClipped) {
  EXPECT_EQ(SelfTime({100, 200}, {{50, 120}, {180, 260}}), 60u);
  EXPECT_EQ(SelfTime({100, 200}, {{0, 50}, {250, 300}}), 100u);
  EXPECT_EQ(SelfTime({0, 100}, {{0, 300}}), 0u);
  EXPECT_EQ(SelfTime({100, 100}, {{0, 300}}), 0u);
}

/// A clock that only moves when told: sleeping jumps to the deadline, and
/// an op's execution advances it by its scripted duration.
class FakeClock final : public Clock {
 public:
  uint64_t NowNs() override { return now_; }
  void SleepUntil(uint64_t deadline_ns) override {
    if (deadline_ns > now_) now_ = deadline_ns;
  }
  void Advance(uint64_t ns) { now_ += ns; }

 private:
  uint64_t now_ = 0;
};

TEST(ScheduleRunnerTest, LatencyCountsFromDueTimeAcrossAStall) {
  // Ops due every 10 ms; op 1 stalls for 35 ms. On one worker, ops 2-4
  // start late, and their latency must include the wait, as a user who
  // sent them on time would see it.
  FakeClock clock;
  std::vector<uint64_t> due = {0, 10, 20, 30, 40, 50};
  for (uint64_t& d : due) d *= 1000000;
  ScheduleRunner runner(due, &clock);
  runner.RunWorker([&](size_t i) {
    clock.Advance(i == 1 ? 35000000 : 1000000);
  });
  const auto& t = runner.timings();
  ASSERT_EQ(t.size(), 6u);
  for (const OpTiming& op : t) EXPECT_TRUE(op.ran);
  EXPECT_EQ(t[0].LatencyNs(), 1000000u);
  EXPECT_EQ(t[1].LateNs(), 0u);
  EXPECT_EQ(t[1].LatencyNs(), 35000000u);
  // Op 2 was due at 20 ms but could start only at 45 ms.
  EXPECT_EQ(t[2].LateNs(), 25000000u);
  EXPECT_EQ(t[2].LatencyNs(), 26000000u);
  EXPECT_EQ(t[3].LateNs(), 16000000u);
  EXPECT_EQ(t[4].LateNs(), 7000000u);
  // The backlog has drained by op 5.
  EXPECT_EQ(t[5].LateNs(), 0u);
  EXPECT_EQ(t[5].LatencyNs(), 1000000u);
}

TEST(ScheduleRunnerTest, AbortsOnceOpsStartTooLate) {
  FakeClock clock;
  std::vector<uint64_t> due = {0, 1, 2, 3, 4};
  ScheduleRunner runner(due, &clock, /*abort_late_ns=*/50);
  runner.RunWorker([&](size_t) { clock.Advance(100); });
  EXPECT_TRUE(runner.aborted());
  EXPECT_TRUE(runner.timings()[0].ran);
  EXPECT_FALSE(runner.timings()[1].ran);
}

TEST(ScheduleRunnerTest, EveryOpRunsOnceAcrossWorkers) {
  std::vector<uint64_t> due(400, 0);
  ScheduleRunner runner(due, &SteadyClock());
  std::vector<std::atomic<int>> runs(due.size());
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      runner.RunWorker([&](size_t i) { runs[i].fetch_add(1); });
    });
  }
  for (auto& w : workers) w.join();
  for (size_t i = 0; i < due.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
    EXPECT_TRUE(runner.timings()[i].ran);
    EXPECT_GE(runner.timings()[i].end, runner.timings()[i].start);
  }
}

TEST(RateSearchTest, ConvergesOnAThreshold) {
  RateSearchOptions options;
  options.start_rate = 100;
  options.resolution = 0.05;
  options.max_probes = 30;
  std::vector<RateProbe> trail;
  double found =
      FindMaxRate(options, [](double rate) { return rate <= 730; }, &trail);
  EXPECT_LE(found, 730);
  EXPECT_GE(found, 730 / 1.05);
  EXPECT_LT(trail.size(), 30u);
}

TEST(RateSearchTest, TerminatesWhateverTheProbeAnswers) {
  RateSearchOptions options;
  options.start_rate = 100;
  options.max_rate = 1e4;
  options.max_probes = 9;

  size_t probes = 0;
  EXPECT_EQ(FindMaxRate(options, [&](double) { return ++probes, true; },
                        nullptr),
            1e4);
  EXPECT_LE(probes, 9u);

  probes = 0;
  EXPECT_EQ(FindMaxRate(options, [&](double) { return ++probes, false; },
                        nullptr),
            0.0);
  EXPECT_LE(probes, 9u);

  // A probe that flips on every call (noise at the knee) still stops at
  // the probe bound.
  probes = 0;
  bool flip = false;
  options.resolution = 0.0;
  FindMaxRate(options, [&](double) { return ++probes, flip = !flip; },
              nullptr);
  EXPECT_LE(probes, 9u);
}

TEST(RateSearchTest, NeverProbesOutsideItsBounds) {
  RateSearchOptions options;
  options.start_rate = 50;
  options.min_rate = 10;
  options.max_rate = 400;
  options.max_probes = 20;
  std::vector<RateProbe> trail;
  FindMaxRate(options, [](double rate) { return rate < 25; }, &trail);
  for (const RateProbe& p : trail) {
    EXPECT_GE(p.rate, 10);
    EXPECT_LE(p.rate, 400);
  }
}

}  // namespace
}  // namespace zr::perfbench
