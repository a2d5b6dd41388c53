#include "core/zerber_r_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/pipeline.h"

namespace zr::core {
namespace {

// A ZerberService decorator over a real server: records the ranges of every
// exchange in order, and, when `lie` is set, rewrites every response before
// the client sees it (a lying server).
class TapService : public net::ZerberService {
 public:
  struct Exchange {
    bool multi = false;  // a MultiFetch, else a Fetch
    std::vector<net::FetchRange> ranges;
  };

  explicit TapService(net::ZerberService* inner) : inner_(inner) {}

  StatusOr<net::InsertResponse> Insert(
      const net::InsertRequest& request) override {
    return inner_->Insert(request);
  }
  StatusOr<net::QueryResponse> Fetch(
      const net::QueryRequest& request) override {
    exchanges.push_back(
        {false, {{request.list, request.offset, request.count}}});
    auto response = inner_->Fetch(request);
    if (response.ok() && lie) lie(&*response);
    return response;
  }
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override {
    exchanges.push_back({true, request.fetches});
    auto response = inner_->MultiFetch(request);
    if (response.ok() && lie) {
      for (net::QueryResponse& r : response->responses) lie(&r);
    }
    return response;
  }
  StatusOr<net::DeleteResponse> Delete(
      const net::DeleteRequest& request) override {
    return inner_->Delete(request);
  }

  std::vector<Exchange> exchanges;
  std::function<void(net::QueryResponse*)> lie;

 private:
  net::ZerberService* inner_;
};

// One shared deployment for all tests in this suite (construction builds an
// encrypted index; reuse keeps the suite fast).
class ZerberRClientTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.003;  // fixed: sigma selection has its own tests
    options.seed = 2025;
    auto pipeline = BuildPipeline(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    pipeline_ = pipeline->release();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  // A client of the deployment's user that speaks to `service`.
  static std::unique_ptr<ZerberRClient> ClientOver(
      net::ZerberService* service) {
    return std::make_unique<ZerberRClient>(
        pipeline_->user, pipeline_->keys.get(), &pipeline_->plan, service,
        &pipeline_->corpus.vocabulary(), pipeline_->assigner.get());
  }

  // The first term whose single-term top-k query takes between `min` and
  // `max` requests.
  static text::TermId TermTakingRequests(size_t k, uint64_t min,
                                         uint64_t max = UINT64_MAX) {
    for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
      auto result = pipeline_->client->QueryTopK(t, k);
      if (!result.ok()) continue;
      if (result->trace.requests >= min && result->trace.requests <= max) {
        return t;
      }
    }
    ADD_FAILURE() << "no term takes " << min << ".." << max << " requests";
    return text::kInvalidTermId;
  }

  static Pipeline* pipeline_;
};

Pipeline* ZerberRClientTest::pipeline_ = nullptr;

TEST_F(ZerberRClientTest, IndexHoldsOneElementPerPosting) {
  EXPECT_EQ(pipeline_->sharded->TotalElements(),
            pipeline_->corpus.TotalPostings());
}

TEST_F(ZerberRClientTest, TopKDocSetMatchesPlaintextBaseline) {
  // The headline IR property: for every term with a *trained* RSTF,
  // single-term top-k through the confidential index returns the same
  // documents as an ordinary inverted index (modulo ties at the k-th score,
  // where any winner is correct). Terms absent from the training sample get
  // a random TRS by design (paper Section 5.1.1) and are exercised in
  // UntrainedRareTermStillReturnsCompleteResults below.
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(term);
    if (df < 3 || term % 17 != 0) continue;  // sample for speed
    if (!pipeline_->assigner->HasRstf(term)) continue;
    const size_t k = 5;
    auto expected = pipeline_->baseline->TopK(term, k);
    auto got = pipeline_->client->QueryTopK(term, k);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->results.size(), expected.size()) << "term " << term;
    for (size_t i = 0; i < expected.size(); ++i) {
      // Scores must agree exactly (same Equation 4 computation).
      EXPECT_DOUBLE_EQ(got->results[i].score, expected[i].score)
          << "term " << term << " rank " << i;
    }
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST_F(ZerberRClientTest, UntrainedRareTermStillReturnsCompleteResults) {
  // Terms outside the training sample have pseudo-random TRS, so their
  // list order is meaningless — but once the client exhausts the list
  // (df <= k), it has every element and client-side sorting restores the
  // exact baseline ranking.
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t checked = 0;
  for (text::TermId term : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(term);
    if (df == 0 || df > 5 || pipeline_->assigner->HasRstf(term)) continue;
    auto got = pipeline_->client->QueryTopK(term, 10);  // k >= df
    ASSERT_TRUE(got.ok());
    auto expected = pipeline_->baseline->TopK(term, 10);
    ASSERT_EQ(got->results.size(), expected.size()) << "term " << term;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->results[i].score, expected[i].score);
    }
    if (++checked >= 10) break;
  }
  EXPECT_GE(checked, 3u);
}

TEST_F(ZerberRClientTest, TraceCountsAreConsistent) {
  text::TermId term = pipeline_->corpus.vocabulary().AllTermIds()[0];
  auto result = pipeline_->client->QueryTopK(term, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->trace.requests, 1u);
  EXPECT_GE(result->trace.elements_fetched, result->trace.hits);
  EXPECT_GT(result->trace.bytes_fetched, 0u);
  EXPECT_EQ(result->results.size(),
            std::min<uint64_t>(result->trace.hits, 10));
}

TEST_F(ZerberRClientTest, FetchedElementsFollowDoublingSchedule) {
  // TRes after n requests must not exceed Equation 12's cumulative size.
  text::TermId term = pipeline_->corpus.vocabulary().AllTermIds()[2];
  auto result = pipeline_->client->QueryTopK(term, 10);
  ASSERT_TRUE(result.ok());
  size_t b = pipeline_->client->protocol().initial_response_size;
  EXPECT_LE(result->trace.elements_fetched,
            CumulativeResponseSize(b, result->trace.requests - 1));
}

TEST_F(ZerberRClientTest, FrequentTermAnsweredInFewRequests) {
  // The most frequent term dominates its merged list, so its top-k sits in
  // the head: 1-2 requests at b = k.
  text::TermId frequent = 0;
  uint64_t best_df = 0;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(t) > best_df) {
      best_df = pipeline_->corpus.DocumentFrequency(t);
      frequent = t;
    }
  }
  auto result = pipeline_->client->QueryTopK(frequent, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->trace.requests, 3u);
  EXPECT_EQ(result->results.size(), 10u);
}

TEST_F(ZerberRClientTest, ExhaustedListReturnsAllAvailableHits) {
  // A df=1 term cannot produce 10 hits; protocol must stop at exhaustion.
  text::TermId rare = text::kInvalidTermId;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    if (pipeline_->corpus.DocumentFrequency(t) == 1) {
      rare = t;
      break;
    }
  }
  ASSERT_NE(rare, text::kInvalidTermId);
  auto result = pipeline_->client->QueryTopK(rare, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.size(), 1u);
  EXPECT_TRUE(result->trace.exhausted);
}

TEST_F(ZerberRClientTest, ResultsOrderedByDecryptedScore) {
  for (text::TermId term : {3u, 9u, 27u}) {
    if (pipeline_->corpus.DocumentFrequency(term) == 0) continue;
    auto result = pipeline_->client->QueryTopK(term, 10);
    ASSERT_TRUE(result.ok());
    for (size_t i = 1; i < result->results.size(); ++i) {
      EXPECT_GE(result->results[i - 1].score, result->results[i].score);
    }
  }
}

TEST_F(ZerberRClientTest, MultiTermMergesSingleTermResults) {
  // Two terms that each need follow-ups, one more than the other.
  text::TermId ta = TermTakingRequests(5, 2, 3);
  text::TermId tb = TermTakingRequests(5, 4);
  std::vector<text::TermId> terms{ta, tb};
  auto multi = pipeline_->client->QueryTopKMulti(terms, 5);
  ASSERT_TRUE(multi.ok());
  EXPECT_LE(multi->results.size(), 5u);
  auto a = pipeline_->client->QueryTopK(ta, 5);
  auto b = pipeline_->client->QueryTopK(tb, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  // Every round carries the next request of each open term in one
  // exchange, so the query takes as many round trips as its slowest term
  // and fetches exactly what the two single-term queries fetch.
  EXPECT_EQ(multi->trace.requests,
            std::max(a->trace.requests, b->trace.requests));
  EXPECT_EQ(multi->trace.elements_fetched,
            a->trace.elements_fetched + b->trace.elements_fetched);
  // Every multi result doc must come from one of the single-term results.
  std::set<text::DocId> sources;
  for (const auto& d : a->results) sources.insert(d.doc_id);
  for (const auto& d : b->results) sources.insert(d.doc_id);
  for (const auto& d : multi->results) {
    EXPECT_TRUE(sources.count(d.doc_id) > 0);
  }
}

TEST_F(ZerberRClientTest, MultiTermSendsEachTermsRequestsOneRoundPerExchange) {
  // Terms that finish after one, two or three, and four or more requests.
  const size_t k = 5;
  std::vector<text::TermId> terms{TermTakingRequests(k, 1, 1),
                                  TermTakingRequests(k, 2, 3),
                                  TermTakingRequests(k, 4)};
  TapService tap(pipeline_->sharded.get());
  auto client = ClientOver(&tap);

  // Each term's single-term requests, in order: one Fetch each.
  std::vector<std::vector<net::FetchRange>> per_term;
  for (text::TermId term : terms) {
    tap.exchanges.clear();
    ASSERT_TRUE(client->QueryTopK(term, k).ok());
    per_term.emplace_back();
    for (const TapService::Exchange& e : tap.exchanges) {
      EXPECT_FALSE(e.multi);
      per_term.back().insert(per_term.back().end(), e.ranges.begin(),
                             e.ranges.end());
    }
  }

  tap.exchanges.clear();
  auto multi = client->QueryTopKMulti(terms, k);
  ASSERT_TRUE(multi.ok()) << multi.status();

  // The server sees the same ranges as the single-term queries together...
  auto key = [](const net::FetchRange& r) {
    return std::tuple(r.list, r.offset, r.count);
  };
  std::multiset<std::tuple<uint32_t, uint64_t, uint64_t>> sent, expected;
  for (const TapService::Exchange& e : tap.exchanges) {
    for (const net::FetchRange& r : e.ranges) sent.insert(key(r));
  }
  for (const auto& ranges : per_term) {
    for (const net::FetchRange& r : ranges) expected.insert(key(r));
  }
  EXPECT_EQ(sent, expected);

  // ...grouped one exchange per round: round i carries the i-th request of
  // every term that makes one, a MultiFetch while several terms are open.
  size_t rounds = 0;
  for (const auto& ranges : per_term) rounds = std::max(rounds, ranges.size());
  ASSERT_EQ(tap.exchanges.size(), rounds);
  EXPECT_EQ(multi->trace.requests, rounds);
  for (size_t i = 0; i < rounds; ++i) {
    std::vector<net::FetchRange> round;
    for (const auto& ranges : per_term) {
      if (i < ranges.size()) round.push_back(ranges[i]);
    }
    EXPECT_EQ(tap.exchanges[i].ranges, round) << "round " << i;
    EXPECT_EQ(tap.exchanges[i].multi, round.size() > 1) << "round " << i;
  }
}

TEST_F(ZerberRClientTest, LargerInitialResponseReducesRequests) {
  text::TermId term = text::kInvalidTermId;
  for (text::TermId t : pipeline_->corpus.vocabulary().AllTermIds()) {
    uint64_t df = pipeline_->corpus.DocumentFrequency(t);
    if (df >= 10 && df <= 30) {
      term = t;
      break;
    }
  }
  ASSERT_NE(term, text::kInvalidTermId);

  ProtocolOptions small;
  small.initial_response_size = 2;
  ProtocolOptions large;
  large.initial_response_size = 200;

  pipeline_->client->set_protocol(small);
  auto with_small = pipeline_->client->QueryTopK(term, 10);
  pipeline_->client->set_protocol(large);
  auto with_large = pipeline_->client->QueryTopK(term, 10);
  pipeline_->client->set_protocol(ProtocolOptions{});

  ASSERT_TRUE(with_small.ok() && with_large.ok());
  EXPECT_GE(with_small->trace.requests, with_large->trace.requests);
  // ...but the result set is identical (protocol only affects transfer).
  ASSERT_EQ(with_small->results.size(), with_large->results.size());
  for (size_t i = 0; i < with_small->results.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_small->results[i].score,
                     with_large->results[i].score);
  }
}

// A lying server: the client checks each response against the range it
// asked for, on the Fetch and the MultiFetch path alike.
TEST_F(ZerberRClientTest, MoreElementsThanRequestedIsCorruption) {
  TapService tap(pipeline_->sharded.get());
  tap.lie = [](net::QueryResponse* r) {
    if (!r->elements.empty()) r->elements.push_back(r->elements.back());
  };
  auto client = ClientOver(&tap);
  // Terms whose first response is a full one, not the list's tail.
  text::TermId ta = TermTakingRequests(5, 2);
  text::TermId tb = TermTakingRequests(5, 4);
  auto single = client->QueryTopK(ta, 5);
  EXPECT_TRUE(single.status().IsCorruption()) << single.status();
  auto multi = client->QueryTopKMulti({ta, tb}, 5);
  EXPECT_TRUE(multi.status().IsCorruption()) << multi.status();
}

TEST_F(ZerberRClientTest, ShortResponseWithoutExhaustedIsCorruption) {
  TapService tap(pipeline_->sharded.get());
  tap.lie = [](net::QueryResponse* r) {
    if (!r->elements.empty()) r->elements.pop_back();
    r->exhausted = false;
  };
  auto client = ClientOver(&tap);
  text::TermId ta = TermTakingRequests(5, 2);
  text::TermId tb = TermTakingRequests(5, 4);
  auto single = client->QueryTopK(ta, 5);
  EXPECT_TRUE(single.status().IsCorruption()) << single.status();
  auto multi = client->QueryTopKMulti({ta, tb}, 5);
  EXPECT_TRUE(multi.status().IsCorruption()) << multi.status();
}

}  // namespace
}  // namespace zr::core
