// Reproducibility of the load harness: a fixed-seed LoadSpec must produce
// an identical op sequence, and — with a deterministic clock — an identical
// JSON report across runs. This is what makes BENCH_loadtest.json diffs
// meaningful and the perf gate debuggable.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "load/driver.h"
#include "load/op_generator.h"
#include "load/report.h"

namespace zr::load {
namespace {

TEST(OpGeneratorTest, FixedSeedYieldsIdenticalSequences) {
  LoadSpec spec;
  spec.seed = 42;
  OpGenerator a(spec, /*worker_index=*/0, /*num_terms=*/500);
  OpGenerator b(spec, /*worker_index=*/0, /*num_terms=*/500);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(a.Next(), b.Next()) << "op " << i;
  }
}

TEST(OpGeneratorTest, WarmupDrawsAreDeterministicToo) {
  LoadSpec spec;
  spec.seed = 42;
  OpGenerator a(spec, 3, 500);
  OpGenerator b(spec, 3, 500);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextWarmupInsert(), b.NextWarmupInsert());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(OpGeneratorTest, DifferentSeedsAndWorkersDiverge) {
  LoadSpec spec;
  spec.seed = 42;
  LoadSpec other = spec;
  other.seed = 43;
  OpGenerator a(spec, 0, 500);
  OpGenerator b(other, 0, 500);
  OpGenerator c(spec, 1, 500);
  int differs_seed = 0, differs_worker = 0;
  for (int i = 0; i < 200; ++i) {
    Op oa = a.Next();
    if (!(oa == b.Next())) ++differs_seed;
    if (!(oa == c.Next())) ++differs_worker;
  }
  EXPECT_GT(differs_seed, 0);
  EXPECT_GT(differs_worker, 0);
}

TEST(OpGeneratorTest, MixWeightsShapeTheClassDistribution) {
  LoadSpec spec;
  spec.seed = 7;
  spec.mix = {1.0, 0.0, 1.0, 0.0};  // only Zerber+R queries and inserts
  OpGenerator gen(spec, 0, 100);
  int counts[kNumOpClasses] = {0, 0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    ++counts[static_cast<size_t>(gen.Next().cls)];
  }
  EXPECT_EQ(counts[static_cast<size_t>(OpClass::kQueryZerber)], 0);
  EXPECT_EQ(counts[static_cast<size_t>(OpClass::kDelete)], 0);
  // Equal weights: both classes within a loose band of 50/50.
  EXPECT_GT(counts[static_cast<size_t>(OpClass::kQueryZerberR)], 700);
  EXPECT_GT(counts[static_cast<size_t>(OpClass::kInsert)], 700);
}

class LoadDriverDeterminismTest : public ::testing::Test {
 protected:
  static std::unique_ptr<core::Pipeline> BuildTinyPipeline() {
    core::PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.004;
    options.seed = 424242;
    options.build_baseline_index = false;
    options.build_query_log = false;
    auto pipeline = core::BuildPipeline(options);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    return std::move(pipeline).value();
  }

  static LoadSpec SingleWorkerSpec() {
    LoadSpec spec;
    spec.seed = 99;
    spec.workers = 1;  // one worker: no cross-thread interleaving at all
    spec.ops_per_worker = 150;
    spec.warmup_inserts = 16;
    spec.num_users = 4;
    spec.groups_per_user = 2;
    return spec;
  }

  /// Deterministic fake clock: advances 1us per query. Shared across the
  /// driver's threads (atomic), deterministic because the single worker and
  /// the main thread alternate strictly.
  static LoadDriver::NowFn FakeClock() {
    auto counter = std::make_shared<std::atomic<uint64_t>>(0);
    return [counter] { return counter->fetch_add(1000) + 1000; };
  }

  static LoadReport MustRun(core::Pipeline* pipeline, const LoadSpec& spec) {
    Deployment deployment = DeploymentFromPipeline(pipeline);
    LoadDriver driver(deployment, spec, FakeClock());
    auto report = driver.Run();
    EXPECT_TRUE(report.ok()) << report.status();
    report->name = "determinism";
    return std::move(report).value();
  }
};

TEST_F(LoadDriverDeterminismTest, FixedSeedProducesIdenticalJsonReport) {
  // Two fresh, identically seeded deployments driven by the same spec with
  // a deterministic clock: everything — op counts, bytes, elements,
  // latency buckets, server counters — must serialize identically. The
  // server-side *_latency_ns sums are the one exception (they are measured
  // with the real steady clock inside IndexServer), so they are zeroed
  // before comparison.
  auto p1 = BuildTinyPipeline();
  auto p2 = BuildTinyPipeline();
  LoadReport r1 = MustRun(p1.get(), SingleWorkerSpec());
  LoadReport r2 = MustRun(p2.get(), SingleWorkerSpec());

  r1.server.fetch_latency_ns = r2.server.fetch_latency_ns = 0;
  r1.server.insert_latency_ns = r2.server.insert_latency_ns = 0;
  r1.server.delete_latency_ns = r2.server.delete_latency_ns = 0;
  EXPECT_EQ(r1.ToJson(), r2.ToJson());

  // Sanity: the run actually did mixed work.
  uint64_t attempted = 0;
  for (const auto& c : r1.op_classes) attempted += c.attempted;
  EXPECT_EQ(attempted, 150u);
  EXPECT_GT(r1.op_classes[static_cast<size_t>(OpClass::kQueryZerberR)].ok, 0u);
  EXPECT_GT(r1.op_classes[static_cast<size_t>(OpClass::kInsert)].ok, 0u);
  EXPECT_GT(r1.op_classes[static_cast<size_t>(OpClass::kDelete)].ok, 0u);
  EXPECT_EQ(r1.server.insert_denied, 0u);
  EXPECT_EQ(r1.server.delete_denied, 0u);
}

TEST_F(LoadDriverDeterminismTest, DifferentSeedsProduceDifferentTraffic) {
  auto p1 = BuildTinyPipeline();
  auto p2 = BuildTinyPipeline();
  LoadSpec spec = SingleWorkerSpec();
  LoadReport r1 = MustRun(p1.get(), spec);
  spec.seed = 100;
  LoadReport r2 = MustRun(p2.get(), spec);
  // Different seed -> different op mix realization and byte counts (the
  // wall/latency fields could coincide, so compare the traffic shape).
  EXPECT_NE(r1.transport.bytes_down, r2.transport.bytes_down);
}

TEST_F(LoadDriverDeterminismTest, TraceSamplingOffLeavesReportByteIdentical) {
  // trace_sample is an observability overlay, not part of the workload:
  // with sampling off (the default), a fixed-seed report must stay
  // byte-identical to one produced by a binary that never heard of
  // tracing — the "obs" block is all-zero and byte-stable, and the spec
  // JSON deliberately omits the knob (the perf gate compares specs).
  auto p1 = BuildTinyPipeline();
  auto p2 = BuildTinyPipeline();
  LoadSpec off = SingleWorkerSpec();
  ASSERT_EQ(off.trace_sample, 0u);
  LoadSpec also_off = SingleWorkerSpec();
  also_off.slow_op_threshold_ns = 0;  // explicit zero == default
  LoadReport r1 = MustRun(p1.get(), off);
  LoadReport r2 = MustRun(p2.get(), also_off);
  r1.server.fetch_latency_ns = r2.server.fetch_latency_ns = 0;
  r1.server.insert_latency_ns = r2.server.insert_latency_ns = 0;
  r1.server.delete_latency_ns = r2.server.delete_latency_ns = 0;
  EXPECT_EQ(r1.ToJson(), r2.ToJson());
  EXPECT_EQ(r1.obs.traces, 0u);
  EXPECT_EQ(r1.obs.spans, 0u);
  EXPECT_EQ(r1.ToJson().find("trace_sample"), std::string::npos)
      << "overlay knobs must not enter the spec JSON";
}

TEST_F(LoadDriverDeterminismTest, TraceSamplingDoesNotPerturbTheOpStream) {
  // Sampling 1-in-N ops adds spans to the report but must not change what
  // the workload did: op counts, bytes, elements, and server counters are
  // identical with sampling on and off.
  auto p1 = BuildTinyPipeline();
  auto p2 = BuildTinyPipeline();
  LoadSpec off = SingleWorkerSpec();
  LoadSpec on = SingleWorkerSpec();
  on.trace_sample = 8;
  LoadReport r_off = MustRun(p1.get(), off);
  LoadReport r_on = MustRun(p2.get(), on);

  for (size_t c = 0; c < kNumOpClasses; ++c) {
    EXPECT_EQ(r_on.op_classes[c].attempted, r_off.op_classes[c].attempted);
    EXPECT_EQ(r_on.op_classes[c].ok, r_off.op_classes[c].ok);
    EXPECT_EQ(r_on.op_classes[c].bytes, r_off.op_classes[c].bytes);
    EXPECT_EQ(r_on.op_classes[c].elements, r_off.op_classes[c].elements);
  }
  EXPECT_EQ(r_on.transport.bytes_up, r_off.transport.bytes_up);
  EXPECT_EQ(r_on.transport.bytes_down, r_off.transport.bytes_down);
  EXPECT_EQ(r_on.server.insert_requests, r_off.server.insert_requests);

  // ...but the sampled ops were traced: 150 ops at 1-in-8 -> 19 traces
  // (op indices 0, 8, ..., 144), each with at least a client_op span.
  EXPECT_EQ(r_on.obs.traces, 19u);
  EXPECT_GE(r_on.obs.spans, r_on.obs.traces);
  const ObsStageReport& client_op =
      r_on.obs.stages[static_cast<size_t>(obs::Stage::kClientOp) - 1];
  EXPECT_EQ(client_op.count, 19u);
  EXPECT_EQ(r_off.obs.traces, 0u);

  // In-process deployment: no router/shard/WAL stages, so no trace can be
  // "complete" by the cluster definition.
  EXPECT_EQ(r_on.obs.complete_traces, 0u);
}

TEST_F(LoadDriverDeterminismTest, MultiLoopTcpServingIsByteIdenticalToSingleLoop) {
  // The event-loop count is a server-side scaling knob, not a protocol
  // participant: the same fixed-seed workload driven over a 4-loop
  // TcpServer must produce the very same report — every op count, every
  // payload byte, every frame — as over a single-loop server. Only the
  // real-clock server latency sums are exempt.
  auto build = [](size_t loops) {
    core::PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.004;
    options.seed = 424242;
    options.build_baseline_index = false;
    options.build_query_log = false;
    options.transport = net::TransportKind::kTcp;
    options.num_server_loops = loops;
    auto pipeline = core::BuildPipeline(options);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    return std::move(pipeline).value();
  };
  auto p_single = build(1);
  auto p_multi = build(4);
  ASSERT_EQ(p_single->tcp_server->num_loops(), 1u);
  ASSERT_EQ(p_multi->tcp_server->num_loops(), 4u);

  LoadReport r1 = MustRun(p_single.get(), SingleWorkerSpec());
  LoadReport r4 = MustRun(p_multi.get(), SingleWorkerSpec());
  r1.server.fetch_latency_ns = r4.server.fetch_latency_ns = 0;
  r1.server.insert_latency_ns = r4.server.insert_latency_ns = 0;
  r1.server.delete_latency_ns = r4.server.delete_latency_ns = 0;
  EXPECT_EQ(r1.ToJson(), r4.ToJson());

  // Framing identity in both deployments: the socket carried exactly the
  // payload bytes plus 4 bytes of length prefix per frame (plus any
  // extension bytes, which payload accounting excludes).
  for (const LoadReport* r : {&r1, &r4}) {
    EXPECT_GT(r->socket.frames_up, 0u);
    EXPECT_EQ(r->socket.bytes_up,
              r->transport.bytes_up + 4 * r->socket.frames_up +
                  r->socket.ext_bytes_up);
    EXPECT_EQ(r->socket.bytes_down,
              r->transport.bytes_down + 4 * r->socket.frames_down +
                  r->socket.ext_bytes_down);
    EXPECT_EQ(r->socket.reconnects, 0u);
  }
}

TEST_F(LoadDriverDeterminismTest, MultiLoopAccountingStaysExactUnderConcurrentWorkers) {
  // Four workers, each with its own connection, against a 4-loop server:
  // interleaving is real, so reports are not byte-comparable across runs —
  // but the accounting identities must hold exactly anyway.
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.sigma = 0.004;
  options.seed = 424242;
  options.build_baseline_index = false;
  options.build_query_log = false;
  options.transport = net::TransportKind::kTcp;
  options.num_server_loops = 4;
  auto pipeline = core::BuildPipeline(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  LoadSpec spec = SingleWorkerSpec();
  spec.workers = 4;
  ASSERT_EQ((*pipeline)->tcp_server->num_loops(), 4u);
  LoadReport r = MustRun(pipeline->get(), spec);

  uint64_t attempted = 0, exchanges = 0;
  for (size_t c = 0; c < kNumOpClasses; ++c) {
    attempted += r.op_classes[c].attempted;
    exchanges += r.op_classes[c].exchanges;
  }
  EXPECT_EQ(attempted, 4u * 150u);
  EXPECT_EQ(exchanges, r.transport.exchanges);
  EXPECT_EQ(r.socket.bytes_up,
            r.transport.bytes_up + 4 * r.socket.frames_up +
                r.socket.ext_bytes_up);
  EXPECT_EQ(r.socket.bytes_down,
            r.transport.bytes_down + 4 * r.socket.frames_down +
                r.socket.ext_bytes_down);
  EXPECT_EQ(r.socket.reconnects, 0u);
  EXPECT_EQ((*pipeline)->tcp_server->stats().protocol_errors, 0u);
}

TEST_F(LoadDriverDeterminismTest, ReportInternalConsistency) {
  auto p = BuildTinyPipeline();
  LoadReport r = MustRun(p.get(), SingleWorkerSpec());
  uint64_t client_exchanges = 0;
  for (size_t c = 0; c < kNumOpClasses; ++c) {
    const OpClassReport& cls = r.op_classes[c];
    EXPECT_EQ(cls.attempted, cls.ok + cls.errors + cls.skipped)
        << OpClassName(static_cast<OpClass>(c));
    EXPECT_EQ(cls.latency.TotalCount(), cls.ok + cls.errors);
    client_exchanges += cls.exchanges;
  }
  // Every client exchange crossed the (per-worker) transports, measured
  // window only.
  EXPECT_EQ(client_exchanges, r.transport.exchanges);
  // Server request counters match what the classes issued: queries fetch,
  // inserts insert, deletes delete.
  EXPECT_EQ(r.server.insert_requests,
            r.op_classes[static_cast<size_t>(OpClass::kInsert)].ok +
                r.op_classes[static_cast<size_t>(OpClass::kInsert)].errors);
  EXPECT_EQ(r.server.delete_requests,
            r.op_classes[static_cast<size_t>(OpClass::kDelete)].ok +
                r.op_classes[static_cast<size_t>(OpClass::kDelete)].errors);
}

// Golden JSON: the report bytes a fixed LoadReport serializes to, pinned so
// the key order and number formatting of every block (op classes, server,
// transport, socket, cluster, obs) stay what BENCH_loadtest.json readers
// parse. The report is filled by field name and every counter is distinct,
// so a swapped pair of keys shows.
TEST(LoadReportTest, ToJsonGolden) {
  LoadReport report;
  report.name = "golden";
  report.wall_seconds = 2.5;
  report.total_ops = 1000;
  report.throughput = 400.0;
  OpClassReport& query = report.op_classes[0];
  query.attempted = 601;
  query.ok = 590;
  query.errors = 10;
  query.skipped = 1;
  query.elements = 7000;
  query.bytes = 123456;
  query.exchanges = 1800;
  query.latency.Add(1500);
  query.latency.Add(250000);
  report.server.fetch_requests = 1;
  report.server.insert_requests = 2;
  report.server.insert_denied = 3;
  report.server.delete_requests = 4;
  report.server.delete_denied = 5;
  report.server.elements_served = 6;
  report.server.bytes_served = 7;
  report.server.fetch_latency_ns = 8;
  report.server.insert_latency_ns = 9;
  report.server.delete_latency_ns = 10;
  report.transport_kind = "tcp";
  report.transport.exchanges = 21;
  report.transport.bytes_up = 22;
  report.transport.bytes_down = 23;
  report.socket.bytes_up = 31;
  report.socket.bytes_down = 32;
  report.socket.frames_up = 33;
  report.socket.frames_down = 34;
  report.socket.reconnects = 35;
  report.socket.ext_bytes_up = 36;
  report.socket.ext_bytes_down = 37;
  report.cluster.attempts = 41;
  report.cluster.transport_errors = 42;
  report.cluster.retries = 43;
  report.cluster.unavailable = 44;
  report.cluster.probes = 45;
  report.cluster.probe_failures = 46;
  report.cluster.breaker_opens = 47;
  report.cluster.rejoins = 48;
  EXPECT_EQ(report.ToJson(),
      R"({"name":"golden","spec":{"seed":1,"workers":4,"mode":"closed",)"
      R"("ops_per_worker":1000,"duration_ms":0,"target_rate":0,)"
      R"("zipf_s":0.9,"top_k":10,"initial_response_size":10,"num_users":8,)"
      R"("groups_per_user":2,"warmup_inserts":32,)"
      R"("mix":{"query_zerber_r":0.45,"query_zerber":0.15,"insert":0.25,)"
      R"("delete":0.15}},"wall_seconds":2.5,"total_ops":1000,)"
      R"("throughput_ops_per_sec":400,)"
      R"("op_classes":{"query_zerber_r":{"attempted":601,"ok":590,)"
      R"("errors":10,"skipped":1,"elements":7000,"bytes":123456,)"
      R"("exchanges":1800,"throughput_ops_per_sec":236,)"
      R"("latency":{"count":2,"min_ns":1500,"mean_ns":125750,)"
      R"("p50_ns":1584.89,"p95_ns":250000,"p99_ns":250000,"p999_ns":250000,)"
      R"("max_ns":250000,"sum_ns":251500}},"query_zerber":{"attempted":0,)"
      R"("ok":0,"errors":0,"skipped":0,"elements":0,"bytes":0,)"
      R"("exchanges":0,"throughput_ops_per_sec":0,"latency":{"count":0,)"
      R"("min_ns":0,"mean_ns":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,)"
      R"("p999_ns":0,"max_ns":0,"sum_ns":0}},"insert":{"attempted":0,)"
      R"("ok":0,"errors":0,"skipped":0,"elements":0,"bytes":0,)"
      R"("exchanges":0,"throughput_ops_per_sec":0,"latency":{"count":0,)"
      R"("min_ns":0,"mean_ns":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,)"
      R"("p999_ns":0,"max_ns":0,"sum_ns":0}},"delete":{"attempted":0,)"
      R"("ok":0,"errors":0,"skipped":0,"elements":0,"bytes":0,)"
      R"("exchanges":0,"throughput_ops_per_sec":0,"latency":{"count":0,)"
      R"("min_ns":0,"mean_ns":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,)"
      R"("p999_ns":0,"max_ns":0,"sum_ns":0}}},"server":{"fetch_requests":1,)"
      R"("insert_requests":2,"insert_denied":3,"delete_requests":4,)"
      R"("delete_denied":5,"elements_served":6,"bytes_served":7,)"
      R"("fetch_latency_ns":8,"insert_latency_ns":9,)"
      R"("delete_latency_ns":10},"transport_kind":"tcp",)"
      R"("transport":{"exchanges":21,"bytes_up":22,"bytes_down":23},)"
      R"("socket":{"bytes_up":31,"bytes_down":32,"frames_up":33,)"
      R"("frames_down":34,"ext_bytes_up":36,"ext_bytes_down":37,)"
      R"("reconnects":35},"cluster":{"attempts":41,"transport_errors":42,)"
      R"("retries":43,"unavailable":44,"probes":45,"probe_failures":46,)"
      R"("breaker_opens":47,"rejoins":48},"obs":{"traces":0,)"
      R"("complete_traces":0,"spans":0,"dropped_spans":0,"slow_ops":0,)"
      R"("stages":{"client_seal":{"count":0,"total_ns":0,"max_ns":0},)"
      R"("client_op":{"count":0,"total_ns":0,"max_ns":0},)"
      R"("transport":{"count":0,"total_ns":0,"max_ns":0},)"
      R"("router_fanout":{"count":0,"total_ns":0,"max_ns":0},)"
      R"("shard_serve":{"count":0,"total_ns":0,"max_ns":0},)"
      R"("index_serve":{"count":0,"total_ns":0,"max_ns":0},)"
      R"("wal_append":{"count":0,"total_ns":0,"max_ns":0}},)"
      R"("example_trace":{"trace_id":0,"spans":[]}}})");
}

}  // namespace
}  // namespace zr::load
