#include "obs/registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/counter_set.h"
#include "obs/metrics.h"
#include "util/histogram.h"
#include "util/random.h"

namespace zr::obs {
namespace {

#define ZR_TEST_COUNTERS_FIELDS(X) \
  X(requests)                      \
  X(bytes)
ZR_COUNTER_SET(TestCounters, ZR_TEST_COUNTERS_FIELDS);

// A window delta subtracts the counters seen at its start. A counter only
// falls when its owner restarted inside the window; that field's delta is
// clamped at zero (an undercount) instead of wrapping to near 2^64.
TEST(ObsCounterSetTest, DeltaClampsAFallenCounterAtZero) {
  TestCounters before{10, 500};
  TestCounters after{25, 200};  // bytes restarted from zero and reached 200
  TestCounters delta = after - before;
  EXPECT_EQ(delta.requests, 15u);
  EXPECT_EQ(delta.bytes, 0u);
  EXPECT_EQ((before - before), TestCounters{});
  TestCounters sum = before;
  sum += after;
  EXPECT_EQ(sum, (TestCounters{35, 700}));
}

TEST(ObsRegistryTest, SameNameReturnsSameInstrument) {
  Registry registry;
  Counter* a = registry.GetCounter("zr_test_total");
  Counter* b = registry.GetCounter("zr_test_total");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);

  Gauge* g = registry.GetGauge("zr_test_gauge");
  EXPECT_EQ(g, registry.GetGauge("zr_test_gauge"));
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 5u);

  // The two namespaces are disjoint: a counter and a gauge may share a
  // name without aliasing.
  EXPECT_NE(static_cast<void*>(registry.GetCounter("zr_shared")),
            static_cast<void*>(registry.GetGauge("zr_shared")));
}

TEST(ObsRegistryTest, HistogramMatchesLatencyHistogramExactly) {
  // The multi-writer histogram must be a lossless stand-in for the
  // single-writer util::LatencyHistogram the load driver uses: same
  // bucket grid, same exact sum/min/max, same percentile semantics.
  Histogram h;
  LatencyHistogram reference;

  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    // Span the full grid: sub-minimum, mid-range, and huge samples.
    uint64_t nanos = rng.NextU64() % (uint64_t{1} << (1 + rng.Uniform(40)));
    h.Record(nanos);
    reference.Add(nanos);
  }

  LatencyHistogram snap = h.Snapshot();
  EXPECT_EQ(snap.TotalCount(), reference.TotalCount());
  EXPECT_EQ(snap.SumNs(), reference.SumNs());
  EXPECT_EQ(h.SumNs(), reference.SumNs());
  EXPECT_EQ(snap.MinNs(), reference.MinNs());
  EXPECT_EQ(snap.MaxNs(), reference.MaxNs());
  EXPECT_DOUBLE_EQ(snap.MeanNs(), reference.MeanNs());
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(snap.BucketCount(i), reference.BucketCount(i)) << "bucket " << i;
  }
  for (double p : {50.0, 95.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(snap.PercentileNs(p), reference.PercentileNs(p))
        << "p" << p;
  }
}

TEST(ObsRegistryTest, BucketIndexSharesLatencyHistogramGrid) {
  // Spot-check the shared bucket routine against the documented grid:
  // everything below kMinNs lands in bucket 0, and each bucket's count in
  // a snapshot matches the bucket the routine names.
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(99), 0u);
  Histogram h;
  std::array<uint64_t, LatencyHistogram::kNumBuckets> expected{};
  for (uint64_t nanos : {uint64_t{0}, uint64_t{100}, uint64_t{101},
                         uint64_t{999}, uint64_t{12345}, uint64_t{999999999},
                         ~uint64_t{0}}) {
    h.Record(nanos);
    size_t index = LatencyHistogram::BucketIndex(nanos);
    ASSERT_LT(index, expected.size());
    // The bucket's lower edge must not exceed the sample (except the
    // catch-all first bucket below kMinNs).
    if (index > 0 && index + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_LE(LatencyHistogram::BucketEdge(index),
                static_cast<double>(nanos));
      EXPECT_GT(LatencyHistogram::BucketEdge(index + 1),
                static_cast<double>(nanos));
    }
    expected[index]++;
  }
  LatencyHistogram snap = h.Snapshot();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(snap.BucketCount(i), expected[i]) << "bucket " << i;
  }
  EXPECT_EQ(snap.TotalCount(), 7u);
}

TEST(ObsRegistryTest, CollectorLifecycle) {
  Registry registry;
  std::atomic<uint64_t> source{11};
  {
    CollectorHandle handle =
        registry.RegisterCollector([&source](Scrape* out) {
          out->samples.push_back({"zr_collected_total", "shard=\"0\"",
                                  source.load(std::memory_order_relaxed)});
        });
    std::vector<Sample> samples = registry.CollectSamples();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].name, "zr_collected_total");
    EXPECT_EQ(samples[0].labels, "shard=\"0\"");
    EXPECT_EQ(samples[0].value, 11u);

    source.store(12);
    EXPECT_EQ(registry.CollectSamples()[0].value, 12u);
  }
  // Handle destroyed: the collector must be gone (its captured state may
  // no longer exist after the owning component's teardown).
  EXPECT_TRUE(registry.CollectSamples().empty());

  // Moved-from handles do not double-unregister.
  CollectorHandle a = registry.RegisterCollector(
      [](Scrape* out) { out->samples.push_back({"zr_a", "", 1}); });
  CollectorHandle b = std::move(a);
  EXPECT_EQ(registry.CollectSamples().size(), 1u);
  b.Release();
  b.Release();  // idempotent
  EXPECT_TRUE(registry.CollectSamples().empty());
}

TEST(ObsRegistryTest, RenderPrometheusFormat) {
  Registry registry;
  registry.GetCounter("zr_frames_total")->Add(7);
  registry.GetGauge("zr_inflight")->Set(3);
  Histogram h;
  h.Record(150);
  h.Record(2500);
  CollectorHandle handle = registry.RegisterCollector([&h](Scrape* out) {
    out->samples.push_back({"zr_shard_attempts_total", "shard=\"2\"", 9});
    out->AddHistogram("zr_latency_ns", "", h);
    out->AddHistogram("zr_shard_latency_ns", "shard=\"2\"", h);
  });

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("zr_frames_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("zr_inflight 3\n"), std::string::npos);
  EXPECT_NE(text.find("zr_shard_attempts_total{shard=\"2\"} 9\n"),
            std::string::npos);
  // Histograms render cumulative buckets plus exact aggregates.
  EXPECT_NE(text.find("zr_latency_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("zr_latency_ns_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("zr_latency_ns_sum 2650\n"), std::string::npos);
  // A labelled histogram puts `le` after the instance labels.
  EXPECT_NE(
      text.find("zr_shard_latency_ns_bucket{shard=\"2\",le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("zr_shard_latency_ns_sum{shard=\"2\"} 2650\n"),
            std::string::npos);
  // Every line is `name value` or `name{labels} value` — parseable by the
  // scrape CLI's strict parser. No terms, no plaintext payloads.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = text.substr(pos, eol - pos);
    if (line.empty() || line[0] == '#') {
      pos = eol + 1;
      continue;
    }
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.compare(0, 3, "zr_"), 0) << line;
    pos = eol + 1;
  }
}

TEST(ObsRegistryTest, ConcurrentWritersAndScrapes) {
  // TSan coverage of the documented concurrency contract: N instrumented
  // writer threads hammer counters/gauges/histograms (lock-free path) and
  // register-on-first-use races, while a scraper thread renders the full
  // registry and a collector reads shared state.
  Registry registry;
  std::atomic<uint64_t> collected_source{0};
  Histogram histogram;
  CollectorHandle handle = registry.RegisterCollector(
      [&collected_source, &histogram](Scrape* out) {
        out->samples.push_back(
            {"zr_src_total", "",
             collected_source.load(std::memory_order_relaxed)});
        out->AddHistogram("zr_write_latency_ns", "", histogram);
      });

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::thread scraper([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string text = registry.RenderPrometheus();
      EXPECT_FALSE(text.empty());
      std::vector<Sample> samples = registry.CollectSamples();
      EXPECT_FALSE(samples.empty());
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, &collected_source, &histogram, w] {
      Counter* counter = registry.GetCounter("zr_writes_total");
      Gauge* gauge = registry.GetGauge("zr_write_gauge");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter->Add(1);
        histogram.Record(static_cast<uint64_t>(100 + (i % 1000) * w));
        gauge->Set(static_cast<uint64_t>(i));
        collected_source.fetch_add(1, std::memory_order_relaxed);
        if (i % 4096 == 0) {
          // Re-registration race: must return the same stable pointer.
          EXPECT_EQ(registry.GetCounter("zr_writes_total"), counter);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  scraper.join();

  EXPECT_EQ(registry.GetCounter("zr_writes_total")->Value(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(histogram.Snapshot().TotalCount(),
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

}  // namespace
}  // namespace zr::obs
