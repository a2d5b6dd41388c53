// Microbenchmarks: transport overhead (google-benchmark).
//
// Measures what routing the protocol over the wire costs: QueryTopK on the
// Fig. 13 query workload (top-10, b = 10) over the zero-copy
// DirectTransport vs a TcpTransport to an in-process TcpServer on the same
// backend (serialize, frame, loopback socket, parse), plus isolated Fetch
// exchanges at fixed response sizes. Future transport work measures
// against this baseline.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace {

using namespace zr;

struct Harness {
  std::unique_ptr<core::Pipeline> pipeline;
  std::vector<text::TermId> terms;
  std::unique_ptr<net::TcpServer> tcp_server;
  std::unique_ptr<net::Transport> direct;
  std::unique_ptr<net::Transport> tcp;
  std::unique_ptr<core::ZerberRClient> direct_client;
  std::unique_ptr<core::ZerberRClient> tcp_client;
};

Harness& GetHarness() {
  static Harness* harness = [] {
    auto* h = new Harness;
    auto preset = synth::OdpWebPreset(/*scale=*/0.02);
    h->pipeline = bench::MustBuildPipeline(bench::StandardOptions(preset));
    h->terms = bench::SampleTermQueries(*h->pipeline, 500);

    core::ProtocolOptions protocol;
    protocol.initial_response_size = 10;  // the paper's b = 10
    h->direct = net::MakeTransport(net::TransportKind::kDirect,
                                   h->pipeline->sharded.get());
    auto server = net::TcpServer::Start(h->pipeline->sharded.get());
    if (!server.ok()) {
      std::fprintf(stderr, "tcp server: %s\n",
                   server.status().ToString().c_str());
      std::exit(1);
    }
    h->tcp_server = std::move(server).value();
    h->tcp = net::MakeTransport(net::TransportKind::kTcp, nullptr,
                                h->tcp_server->address());
    h->direct_client = std::make_unique<core::ZerberRClient>(
        h->pipeline->user, h->pipeline->keys.get(), &h->pipeline->plan,
        h->direct.get(), &h->pipeline->corpus.vocabulary(),
        h->pipeline->assigner.get(), protocol);
    h->tcp_client = std::make_unique<core::ZerberRClient>(
        h->pipeline->user, h->pipeline->keys.get(), &h->pipeline->plan,
        h->tcp.get(), &h->pipeline->corpus.vocabulary(),
        h->pipeline->assigner.get(), protocol);
    return h;
  }();
  return *harness;
}

void RunWorkload(benchmark::State& state, core::ZerberRClient* client,
                 net::Transport* transport) {
  Harness& h = GetHarness();
  transport->ResetStats();
  size_t i = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    auto result = client->QueryTopK(h.terms[i], 10);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
    i = (i + 1) % h.terms.size();
    ++queries;
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries));
  state.SetBytesProcessed(
      static_cast<int64_t>(transport->stats().bytes_down));
}

void BM_QueryTopK_DirectTransport(benchmark::State& state) {
  Harness& h = GetHarness();
  RunWorkload(state, h.direct_client.get(), h.direct.get());
}
BENCHMARK(BM_QueryTopK_DirectTransport);

void BM_QueryTopK_TcpTransport(benchmark::State& state) {
  Harness& h = GetHarness();
  RunWorkload(state, h.tcp_client.get(), h.tcp.get());
}
BENCHMARK(BM_QueryTopK_TcpTransport);

void RunFetch(benchmark::State& state, net::Transport* transport) {
  Harness& h = GetHarness();
  net::QueryRequest request;
  request.user = h.pipeline->user;
  request.list = 0;
  request.count = static_cast<uint64_t>(state.range(0));
  transport->ResetStats();
  for (auto _ : state) {
    auto response = transport->Fetch(request);
    if (!response.ok()) {
      state.SkipWithError(response.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(transport->stats().bytes_down));
}

void BM_Fetch_DirectTransport(benchmark::State& state) {
  RunFetch(state, GetHarness().direct.get());
}
BENCHMARK(BM_Fetch_DirectTransport)->Arg(10)->Arg(100)->Arg(1000);

void BM_Fetch_TcpTransport(benchmark::State& state) {
  RunFetch(state, GetHarness().tcp.get());
}
BENCHMARK(BM_Fetch_TcpTransport)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
