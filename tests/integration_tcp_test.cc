// Acceptance test for the TCP transport: a full deployment queried over a
// real socket must produce TopKResults identical to DirectTransport's —
// results, trace counts AND byte accounting (tcp payload bytes equal
// direct's analytic sizes message for message) — from a second client on
// the direct deployment's own server, beside the per-TransportKind
// checks of tests/integration_transport_test.cc. Also proves a whole
// pipeline (encrypted index build included) works when every exchange
// crosses the socket, and that the load driver's byte totals satisfy the
// framing identity.

#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.h"
#include "load/driver.h"
#include "net/tcp.h"

namespace zr::core {
namespace {

class TcpEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.004;
    options.seed = 424242;
    options.build_baseline_index = false;
    options.transport = net::TransportKind::kDirect;
    auto pipeline = BuildPipeline(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    pipeline_ = pipeline->release();

    // A TcpServer over the *same* backend service, so the direct client
    // and the tcp client observe exactly the same index state.
    auto server = net::TcpServer::Start(pipeline_->sharded.get());
    ASSERT_TRUE(server.ok()) << server.status();
    tcp_server_ = server->release();
    tcp_ = new net::TcpTransport(tcp_server_->address());
    tcp_client_ = new ZerberRClient(
        pipeline_->user, pipeline_->keys.get(), &pipeline_->plan, tcp_,
        &pipeline_->corpus.vocabulary(), pipeline_->assigner.get(),
        pipeline_->client->protocol());
  }

  static void TearDownTestSuite() {
    delete tcp_client_;
    delete tcp_;
    delete tcp_server_;
    delete pipeline_;
    tcp_client_ = nullptr;
    tcp_ = nullptr;
    tcp_server_ = nullptr;
    pipeline_ = nullptr;
  }

  static void ExpectIdentical(const TopKResult& direct,
                              const TopKResult& tcp) {
    ASSERT_EQ(direct.results.size(), tcp.results.size());
    for (size_t i = 0; i < direct.results.size(); ++i) {
      EXPECT_EQ(direct.results[i].doc_id, tcp.results[i].doc_id);
      EXPECT_DOUBLE_EQ(direct.results[i].score, tcp.results[i].score);
    }
    EXPECT_EQ(direct.trace.requests, tcp.trace.requests);
    EXPECT_EQ(direct.trace.elements_fetched, tcp.trace.elements_fetched);
    EXPECT_EQ(direct.trace.hits, tcp.trace.hits);
    EXPECT_EQ(direct.trace.exhausted, tcp.trace.exhausted);
    // Direct accounts analytic message sizes; tcp accounts the payloads
    // that actually crossed the socket. They must agree to the byte.
    EXPECT_EQ(direct.trace.bytes_fetched, tcp.trace.bytes_fetched);
  }

  static Pipeline* pipeline_;
  static net::TcpServer* tcp_server_;
  static net::TcpTransport* tcp_;
  static ZerberRClient* tcp_client_;
};

Pipeline* TcpEquivalenceTest::pipeline_ = nullptr;
net::TcpServer* TcpEquivalenceTest::tcp_server_ = nullptr;
net::TcpTransport* TcpEquivalenceTest::tcp_ = nullptr;
ZerberRClient* TcpEquivalenceTest::tcp_client_ = nullptr;

TEST_F(TcpEquivalenceTest, SingleTermQueriesAreIdentical) {
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(term) == 0) continue;
    if (term % 11 != 0) continue;  // sample for test speed
    auto direct = pipeline_->client->QueryTopK(term, 10);
    auto tcp = tcp_client_->QueryTopK(term, 10);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(tcp.ok()) << tcp.status();
    ExpectIdentical(*direct, *tcp);
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST_F(TcpEquivalenceTest, TcpBytesEqualSummedResponseSizesPlusFraming) {
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(term) < 2) continue;
    if (term % 23 != 0) continue;
    tcp_->ResetStats();
    auto result = tcp_client_->QueryTopK(term, 10);
    ASSERT_TRUE(result.ok()) << result.status();
    // The client's byte trace equals the payload bytes the transport
    // moved down, and the socket moved exactly 4 more per frame.
    EXPECT_EQ(result->trace.bytes_fetched, tcp_->stats().bytes_down)
        << "term " << term;
    EXPECT_EQ(result->trace.requests, tcp_->stats().exchanges);
    const net::TcpSocketStats& socket = tcp_->socket_stats();
    EXPECT_EQ(socket.bytes_down,
              tcp_->stats().bytes_down +
                  net::kFrameHeaderBytes * socket.frames_down);
    EXPECT_EQ(socket.bytes_up, tcp_->stats().bytes_up +
                                   net::kFrameHeaderBytes * socket.frames_up);
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST_F(TcpEquivalenceTest, MultiTermQueriesAreIdentical) {
  auto ids = pipeline_->corpus.vocabulary().AllTermIds();
  std::vector<std::vector<text::TermId>> queries = {
      {ids[0], ids[1]},
      {ids[2], ids[5], ids[9]},
      {ids[3]},
  };
  for (const auto& terms : queries) {
    auto direct = pipeline_->client->QueryTopKMulti(terms, 5);
    auto tcp = tcp_client_->QueryTopKMulti(terms, 5);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(tcp.ok()) << tcp.status();
    ExpectIdentical(*direct, *tcp);
  }
}

TEST_F(TcpEquivalenceTest, PipelineBuildsOverTcpTransport) {
  // A whole deployment — index build included — constructed with
  // options.transport = kTcp: every posting element crossed the socket.
  PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 40;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  options.transport = net::TransportKind::kTcp;
  auto tcp_pipeline = BuildPipeline(options);
  ASSERT_TRUE(tcp_pipeline.ok()) << tcp_pipeline.status();

  options.transport = net::TransportKind::kDirect;
  auto direct_pipeline = BuildPipeline(options);
  ASSERT_TRUE(direct_pipeline.ok()) << direct_pipeline.status();

  EXPECT_EQ((*tcp_pipeline)->sharded->TotalElements(),
            (*direct_pipeline)->sharded->TotalElements());
  // Every insert of the index build was one request frame to the server.
  EXPECT_GE((*tcp_pipeline)->tcp_server->stats().frames_served,
            (*tcp_pipeline)->sharded->TotalElements());

  for (text::TermId term :
       (*direct_pipeline)->corpus.vocabulary().AllTermIds()) {
    if ((*direct_pipeline)->corpus.DocumentFrequency(term) == 0) continue;
    if (term % 29 != 0) continue;
    auto direct = (*direct_pipeline)->client->QueryTopK(term, 5);
    auto tcp = (*tcp_pipeline)->client->QueryTopK(term, 5);
    ASSERT_TRUE(direct.ok() && tcp.ok());
    ExpectIdentical(*direct, *tcp);
  }
}

TEST_F(TcpEquivalenceTest, LoadDriverOverTcpSatisfiesTheFramingIdentity) {
  // A small single-worker load run over the shared server: deterministic
  // op sequence, real socket traffic, and the identity loadgen gates on.
  load::Deployment deployment = load::DeploymentFromPipeline(pipeline_);
  deployment.transport = net::TransportKind::kTcp;
  deployment.connect_addr = tcp_server_->address();

  load::LoadSpec spec;
  spec.seed = 7;
  spec.workers = 1;
  spec.ops_per_worker = 100;
  spec.warmup_inserts = 8;
  load::LoadDriver driver(deployment, spec);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->transport_kind, "tcp");
  EXPECT_GT(report->total_ops, 0u);
  EXPECT_EQ(report->socket.bytes_up,
            report->transport.bytes_up +
                net::kFrameHeaderBytes * report->socket.frames_up);
  EXPECT_EQ(report->socket.bytes_down,
            report->transport.bytes_down +
                net::kFrameHeaderBytes * report->socket.frames_down);
  EXPECT_EQ(report->socket.reconnects, 0u);
}

}  // namespace
}  // namespace zr::core
