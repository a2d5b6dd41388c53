#include "obs/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "obs/slow_op_log.h"

namespace zr::obs {
namespace {

// The tracer, slow-op log, and trace context are process/thread singletons;
// each test drains the residue of the previous one before asserting.
void DrainGlobals() {
  Tracer::Global().Drain();
  SlowOpLog::Global().set_threshold_ns(0);
  SlowOpLog::Global().Drain();
}

TEST(ObsTraceTest, ScopedTraceInstallsAndRestores) {
  EXPECT_FALSE(CurrentTrace().active());
  {
    ScopedTrace outer(TraceContext{42, 1});
    EXPECT_TRUE(CurrentTrace().active());
    EXPECT_EQ(CurrentTrace().trace_id, 42u);
    EXPECT_EQ(CurrentTrace().span_id, 1u);
    {
      ScopedTrace inner(TraceContext{43, 2});
      EXPECT_EQ(CurrentTrace().trace_id, 43u);
    }
    EXPECT_EQ(CurrentTrace().trace_id, 42u);
  }
  EXPECT_FALSE(CurrentTrace().active());
}

TEST(ObsTraceTest, RecordSpanIsNoOpWithoutActiveTrace) {
  DrainGlobals();
  RecordSpan(Stage::kIndexServe, 123, 7);
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

TEST(ObsTraceTest, RecordSpanReachesGlobalTracerUnderActiveTrace) {
  DrainGlobals();
  {
    ScopedTrace traced(TraceContext{99, 1});
    RecordSpan(Stage::kIndexServe, 123, 7);
    RecordSpan(Stage::kWalAppend, 456, 8);
  }
  std::vector<SpanRecord> spans = Tracer::Global().Drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (SpanRecord{99, Stage::kIndexServe, 123, 7}));
  EXPECT_EQ(spans[1], (SpanRecord{99, Stage::kWalAppend, 456, 8}));
  EXPECT_TRUE(Tracer::Global().Drain().empty());  // Drain clears
}

TEST(ObsTraceTest, ScopedSpanSinkDivertsSpansFromTracer) {
  DrainGlobals();
  SpanCollector collector;
  {
    ScopedTrace traced(TraceContext{7, 1});
    {
      ScopedSpanSink sink(&collector);
      RecordSpan(Stage::kShardServe, 10, 1);
    }
    // Sink uninstalled: spans flow to the tracer again.
    RecordSpan(Stage::kTransport, 20, 2);
  }
  ASSERT_EQ(collector.spans().size(), 1u);
  EXPECT_EQ(collector.spans()[0].stage, Stage::kShardServe);
  EXPECT_EQ(collector.spans()[0].trace_id, 7u);
  std::vector<SpanRecord> spans = Tracer::Global().Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].stage, Stage::kTransport);
}

TEST(ObsTraceTest, TracerRingWrapsAndCountsDrops) {
  DrainGlobals();
  const uint64_t dropped_before = Tracer::Global().dropped();
  {
    ScopedTrace traced(TraceContext{5, 1});
    for (size_t i = 0; i < Tracer::kCapacity + 10; ++i) {
      RecordSpan(Stage::kClientOp, i, i);
    }
  }
  std::vector<SpanRecord> spans = Tracer::Global().Drain();
  ASSERT_EQ(spans.size(), Tracer::kCapacity);
  EXPECT_EQ(Tracer::Global().dropped() - dropped_before, 10u);
  // Oldest-first drain of the survivors: the 10 oldest were overwritten.
  EXPECT_EQ(spans.front().duration_ns, 10u);
  EXPECT_EQ(spans.back().duration_ns, Tracer::kCapacity + 9);
}

TEST(ObsTraceTest, StageNames) {
  EXPECT_STREQ(StageName(Stage::kClientSeal), "client_seal");
  EXPECT_STREQ(StageName(Stage::kClientOp), "client_op");
  EXPECT_STREQ(StageName(Stage::kTransport), "transport");
  EXPECT_STREQ(StageName(Stage::kRouterFanout), "router_fanout");
  EXPECT_STREQ(StageName(Stage::kShardServe), "shard_serve");
  EXPECT_STREQ(StageName(Stage::kIndexServe), "index_serve");
  EXPECT_STREQ(StageName(Stage::kWalAppend), "wal_append");
}

TEST(ObsTraceTest, DeriveTraceIdIsDeterministicNonzeroAndSpread) {
  std::set<uint64_t> ids;
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{77}}) {
    for (uint64_t worker = 0; worker < 4; ++worker) {
      for (uint64_t op = 0; op < 64; ++op) {
        uint64_t id = DeriveTraceId(seed, worker, op);
        EXPECT_NE(id, 0u);
        EXPECT_EQ(id, DeriveTraceId(seed, worker, op));  // deterministic
        ids.insert(id);
      }
    }
  }
  // 3 seeds x 4 workers x 64 ops: a mixing function must not collide here.
  EXPECT_EQ(ids.size(), 3u * 4 * 64);
}

TEST(ObsTraceTest, MonotonicClockAdvances) {
  uint64_t a = MonotonicNowNs();
  uint64_t b = MonotonicNowNs();
  EXPECT_GE(b, a);
}

TEST(ObsSlowOpLogTest, DisabledByDefaultAndThresholdFilters) {
  DrainGlobals();
  SlowOpLog log;
  EXPECT_EQ(log.threshold_ns(), 0u);
  log.MaybeRecord({Stage::kIndexServe, 1, 2, 1000000, 0});
  EXPECT_TRUE(log.Drain().empty());  // disabled: nothing recorded

  log.set_threshold_ns(500);
  log.MaybeRecord({Stage::kIndexServe, 1, 2, 499, 0});   // under
  log.MaybeRecord({Stage::kIndexServe, 3, 4, 500, 0});   // at
  log.MaybeRecord({Stage::kWalAppend, 5, 6, 90000, 0});  // over
  std::vector<SlowOp> ops = log.Drain();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], (SlowOp{Stage::kIndexServe, 3, 4, 500, 0}));
  EXPECT_EQ(ops[1], (SlowOp{Stage::kWalAppend, 5, 6, 90000, 0}));
  EXPECT_EQ(log.recorded(), 2u);
  EXPECT_TRUE(log.Drain().empty());
}

TEST(ObsSlowOpLogTest, StampsCurrentTraceId) {
  SlowOpLog log;
  log.set_threshold_ns(1);
  {
    ScopedTrace traced(TraceContext{1234, 1});
    log.MaybeRecord({Stage::kShardServe, 7, 8, 50, 0});
    // An explicit trace id wins over the ambient context.
    log.MaybeRecord({Stage::kShardServe, 7, 8, 50, 5678});
  }
  log.MaybeRecord({Stage::kShardServe, 7, 8, 50, 0});  // no ambient trace
  std::vector<SlowOp> ops = log.Drain();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].trace_id, 1234u);
  EXPECT_EQ(ops[1].trace_id, 5678u);
  EXPECT_EQ(ops[2].trace_id, 0u);
}

TEST(ObsSlowOpLogTest, RingWrapsKeepingNewest) {
  SlowOpLog log;
  log.set_threshold_ns(1);
  for (uint64_t i = 0; i < SlowOpLog::kCapacity + 5; ++i) {
    log.MaybeRecord({Stage::kClientOp, i, 0, 10 + i, 0});
  }
  std::vector<SlowOp> ops = log.Drain();
  ASSERT_EQ(ops.size(), SlowOpLog::kCapacity);
  EXPECT_EQ(ops.front().list, 5u);  // oldest 5 overwritten
  EXPECT_EQ(ops.back().list, SlowOpLog::kCapacity + 4);
  EXPECT_EQ(log.recorded(), SlowOpLog::kCapacity + 5);
}

}  // namespace
}  // namespace zr::obs
