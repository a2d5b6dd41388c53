// Acceptance test for the transport-abstracted service API, run once for
// every TransportKind: a whole deployment built with options.transport =
// kind (encrypted index build included) must answer queries with
// TopKResults identical to a DirectTransport deployment's (results and
// trace counts), and the client's QueryTrace must agree with the
// transport's own counters — bytes_fetched equals stats().bytes_down and
// requests equals stats().exchanges — for single- and multi-term queries.
// The tcp-only properties (payload plus framing bytes, a second client on
// one server, the load driver over a socket) are in integration_tcp_test.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace zr::core {
namespace {

PipelineOptions SmallDeployment(net::TransportKind kind) {
  PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 40;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  options.transport = kind;
  return options;
}

class TransportEquivalenceTest
    : public ::testing::TestWithParam<net::TransportKind> {
 protected:
  static void SetUpTestSuite() {
    auto direct = BuildPipeline(SmallDeployment(net::TransportKind::kDirect));
    ASSERT_TRUE(direct.ok()) << direct.status();
    direct_ = direct->release();
  }
  static void TearDownTestSuite() {
    delete direct_;
    direct_ = nullptr;
  }

  void SetUp() override {
    ASSERT_NE(direct_, nullptr);
    auto pipeline = BuildPipeline(SmallDeployment(GetParam()));
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    pipeline_ = std::move(*pipeline);
  }

  static void ExpectIdentical(const TopKResult& direct,
                              const TopKResult& other) {
    ASSERT_EQ(direct.results.size(), other.results.size());
    for (size_t i = 0; i < direct.results.size(); ++i) {
      EXPECT_EQ(direct.results[i].doc_id, other.results[i].doc_id);
      EXPECT_DOUBLE_EQ(direct.results[i].score, other.results[i].score);
    }
    EXPECT_EQ(direct.trace.requests, other.trace.requests);
    EXPECT_EQ(direct.trace.elements_fetched, other.trace.elements_fetched);
    EXPECT_EQ(direct.trace.hits, other.trace.hits);
    EXPECT_EQ(direct.trace.exhausted, other.trace.exhausted);
    EXPECT_EQ(direct.trace.bytes_fetched, other.trace.bytes_fetched);
  }

  // The trace of a query run alone must equal what the transport counted.
  void ExpectTraceMatchesTransportStats(const TopKResult& result) {
    EXPECT_EQ(result.trace.bytes_fetched,
              pipeline_->transport->stats().bytes_down);
    EXPECT_EQ(result.trace.requests, pipeline_->transport->stats().exchanges);
  }

  std::vector<std::vector<text::TermId>> MultiTermQueries() const {
    auto ids = pipeline_->corpus.vocabulary().AllTermIds();
    return {
        {ids[0], ids[1]},
        {ids[2], ids[5], ids[9]},
        {ids[0], ids[1], ids[4]},
    };
  }

  static Pipeline* direct_;
  std::unique_ptr<Pipeline> pipeline_;
};

Pipeline* TransportEquivalenceTest::direct_ = nullptr;

TEST_P(TransportEquivalenceTest, IndexBuildCrossedTheTransport) {
  EXPECT_EQ(pipeline_->sharded->TotalElements(),
            direct_->sharded->TotalElements());
  // The pipeline's transport carried the whole index build (one insert
  // exchange per posting element).
  EXPECT_GE(pipeline_->transport->stats().exchanges,
            pipeline_->sharded->TotalElements());
  EXPECT_EQ(pipeline_->tcp_server != nullptr,
            GetParam() == net::TransportKind::kTcp);
}

TEST_P(TransportEquivalenceTest, SingleTermQueriesMatchDirect) {
  size_t checked = 0;
  for (text::TermId term : direct_->corpus.vocabulary().AllTermIds()) {
    if (direct_->corpus.DocumentFrequency(term) == 0) continue;
    if (term % 7 != 0) continue;  // sample for test speed
    auto direct = direct_->client->QueryTopK(term, 5);
    auto other = pipeline_->client->QueryTopK(term, 5);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(other.ok()) << other.status();
    ExpectIdentical(*direct, *other);
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST_P(TransportEquivalenceTest, MultiTermQueriesMatchDirect) {
  for (const auto& terms : MultiTermQueries()) {
    auto direct = direct_->client->QueryTopKMulti(terms, 5);
    auto other = pipeline_->client->QueryTopKMulti(terms, 5);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(other.ok()) << other.status();
    ExpectIdentical(*direct, *other);
  }
}

TEST_P(TransportEquivalenceTest, SingleTermTraceMatchesTransportStats) {
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(term) < 2) continue;
    if (term % 5 != 0) continue;
    pipeline_->transport->ResetStats();
    auto result = pipeline_->client->QueryTopK(term, 5);
    ASSERT_TRUE(result.ok()) << result.status();
    SCOPED_TRACE("term " + std::to_string(term));
    ExpectTraceMatchesTransportStats(*result);
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

TEST_P(TransportEquivalenceTest, MultiTermTraceMatchesTransportStats) {
  for (const auto& terms : MultiTermQueries()) {
    pipeline_->transport->ResetStats();
    auto result = pipeline_->client->QueryTopKMulti(terms, 5);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectTraceMatchesTransportStats(*result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TransportEquivalenceTest,
    ::testing::Values(net::TransportKind::kDirect, net::TransportKind::kTcp),
    [](const ::testing::TestParamInfo<net::TransportKind>& info) {
      return std::string(net::TransportKindName(info.param));
    });

}  // namespace
}  // namespace zr::core
