// Microbenchmarks: sharded serving throughput (google-benchmark).
//
// Measures multi-threaded query throughput against the sharded backend:
// QueryTopKMulti (top-10, b = 10, one MultiFetch per round) on the query
// workload, for 1/2/4/8 concurrent client threads x 1/4/16 index shards.
// The 1-shard rows are the one-shard baseline (the in-memory default);
// the acceptance target for the sharded serving layer is
// >= 2x items/s at shards:4/threads:4 over shards:1/threads:4 on hardware
// with >= 4 cores. Each client thread owns its transport + client (the
// paper's concurrent-users model); the backend is shared.
//
//   ./micro_sharded --benchmark_filter=MultiQuery
//
// Run on a multi-core machine; on a single core the rows collapse to the
// serial throughput and only measure locking overhead.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_common.h"
#include "net/transport.h"

namespace {

using namespace zr;

struct Harness {
  std::unique_ptr<core::Pipeline> pipeline;
  std::vector<std::vector<text::TermId>> queries;
};

/// Multi-term queries of the synthetic log with all dead terms dropped.
std::vector<std::vector<text::TermId>> SampleMultiTermQueries(
    const core::Pipeline& p, size_t limit) {
  std::vector<std::vector<text::TermId>> queries;
  for (const auto& query : p.query_log.queries) {
    std::vector<text::TermId> terms;
    for (text::TermId t : query) {
      if (p.corpus.DocumentFrequency(t) > 0) terms.push_back(t);
    }
    if (terms.empty()) continue;
    queries.push_back(std::move(terms));
    if (queries.size() >= limit) break;
  }
  return queries;
}

Harness& GetHarness(size_t num_shards) {
  static std::mutex mu;
  static std::map<size_t, std::unique_ptr<Harness>>* harnesses =
      new std::map<size_t, std::unique_ptr<Harness>>();
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*harnesses)[num_shards];
  if (!slot) {
    slot = std::make_unique<Harness>();
    auto preset = synth::OdpWebPreset(/*scale=*/0.02);
    core::PipelineOptions options = bench::StandardOptions(preset);
    options.num_shards = num_shards;
    slot->pipeline = bench::MustBuildPipeline(options);
    slot->queries = SampleMultiTermQueries(*slot->pipeline, 400);
  }
  return *slot;
}

/// state.range(0) = number of shards; threads = concurrent clients.
void BM_MultiQuery(benchmark::State& state) {
  Harness& h = GetHarness(static_cast<size_t>(state.range(0)));

  // One transport + client per thread: clients are single-threaded by
  // contract, the backend behind them is what scales.
  core::ProtocolOptions protocol;
  protocol.initial_response_size = 10;  // the paper's b = 10
  net::DirectTransport transport(h.pipeline->sharded.get());
  core::ZerberRClient client(
      h.pipeline->user, h.pipeline->keys.get(), &h.pipeline->plan, &transport,
      &h.pipeline->corpus.vocabulary(), h.pipeline->assigner.get(), protocol);

  // Stagger threads through the workload so they do not run in lockstep.
  size_t i = static_cast<size_t>(state.thread_index()) * 37;
  uint64_t queries = 0;
  for (auto _ : state) {
    auto result = client.QueryTopKMulti(h.queries[i % h.queries.size()], 10);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
    ++i;
    ++queries;
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
}
BENCHMARK(BM_MultiQuery)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// Raw MultiFetch fan-out (no client-side decryption): isolates the
/// serving path the sharding parallelizes.
void BM_MultiFetch(benchmark::State& state) {
  Harness& h = GetHarness(static_cast<size_t>(state.range(0)));
  net::DirectTransport transport(h.pipeline->sharded.get());

  net::MultiFetchRequest request;
  request.user = h.pipeline->user;
  size_t num_lists = h.pipeline->plan.NumLists();
  for (uint32_t list = 0; list < num_lists && list < 8; ++list) {
    net::FetchRange range;
    range.list = list;
    range.offset = 0;
    range.count = 64;
    request.fetches.push_back(range);
  }
  uint64_t batches = 0;
  for (auto _ : state) {
    auto response = transport.MultiFetch(request);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(response);
    ++batches;
  }
  state.SetItemsProcessed(static_cast<int64_t>(batches));
}
BENCHMARK(BM_MultiFetch)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->ThreadRange(1, 8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
