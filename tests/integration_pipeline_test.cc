// End-to-end integration: the full Zerber+R deployment built by the
// pipeline must satisfy the paper's security and retrieval claims at once.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <set>

#include "core/adversary.h"
#include "core/workload_model.h"
#include "core/zerber_r_index.h"
#include "util/stats.h"

namespace zr::core {
namespace {

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.0;  // exercise cross-validated sigma selection
    options.sigma_sample_terms = 12;
    options.seed = 777;
    auto pipeline = BuildPipeline(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    pipeline_ = pipeline->release();
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static Pipeline* pipeline_;
};

Pipeline* PipelineIntegrationTest::pipeline_ = nullptr;

TEST_F(PipelineIntegrationTest, SigmaWasCrossValidated) {
  EXPECT_GT(pipeline_->sigma, 0.0);
  EXPECT_FALSE(pipeline_->sigma_sweep.empty());
}

TEST_F(PipelineIntegrationTest, MergePlanIsRConfidential) {
  auto audit = AuditConfidentiality(pipeline_->corpus, pipeline_->plan,
                                    pipeline_->options.preset.r);
  EXPECT_TRUE(audit.all_within_r);
  EXPECT_GT(audit.num_lists, 1u);
}

TEST_F(PipelineIntegrationTest, ServerHoldsWholeCorpus) {
  EXPECT_EQ(pipeline_->sharded->TotalElements(),
            pipeline_->corpus.TotalPostings());
  EXPECT_EQ(pipeline_->sharded->NumLists(), pipeline_->plan.NumLists());
}

TEST_F(PipelineIntegrationTest, ServerSideTrsValuesAreGloballyUniform) {
  // Section 6.2: after transformation, TRS values across the whole index
  // carry no term-specific structure; the pooled distribution is ~U(0,1).
  std::vector<double> all_trs;
  const zerber::ShardedIndexService& index = *pipeline_->sharded;
  for (size_t l = 0; l < index.NumLists(); ++l) {
    auto list = index.GetList(static_cast<uint32_t>(l));
    ASSERT_TRUE(list.ok());
    for (const auto& e : (*list)->elements()) all_trs.push_back(e.trs);
  }
  ASSERT_GT(all_trs.size(), 1000u);
  EXPECT_LT(KolmogorovSmirnovUniform(all_trs), 0.08);
}

TEST_F(PipelineIntegrationTest, QueryWorkloadReplaySingleTerm) {
  // Replay a slice of the synthetic workload; every query must return
  // exactly the baseline's documents-by-score.
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t replayed = 0;
  for (const auto& query : pipeline_->query_log.queries) {
    if (replayed >= 40) break;
    text::TermId term = query[0];
    if (pipeline_->corpus.DocumentFrequency(term) == 0) continue;
    auto got = pipeline_->client->QueryTopK(term, 10);
    ASSERT_TRUE(got.ok());
    auto expected = pipeline_->baseline->TopK(term, 10);
    ASSERT_EQ(got->results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(got->results[i].score, expected[i].score);
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 20u);
}

TEST_F(PipelineIntegrationTest, StorageReportShowsNoRankingOverhead) {
  StorageReport report = ComputeStorageReport(*pipeline_->sharded);
  EXPECT_EQ(report.elements, pipeline_->corpus.TotalPostings());
  // Section 6.3: TRS replaces the plaintext score — same ranking bytes.
  EXPECT_EQ(report.ranking_bytes_zerber_r, report.ranking_bytes_ordinary);
  EXPECT_GT(report.bytes_per_element, 0.0);
}

TEST_F(PipelineIntegrationTest, RequestCountsDoNotSeparateTermsWithinLists) {
  // Query every term of several merged lists; within a list the average
  // request count must be close to flat (BFM property, Section 6.2).
  std::unordered_map<text::TermId, double> mean_requests;
  size_t lists_checked = 0;
  for (size_t l = 0; l < pipeline_->plan.NumLists() && lists_checked < 5; ++l) {
    const auto& terms = pipeline_->plan.lists[l];
    if (terms.size() < 2) continue;
    for (text::TermId t : terms) {
      auto result = pipeline_->client->QueryTopK(t, 5);
      ASSERT_TRUE(result.ok());
      mean_requests[t] = static_cast<double>(result->trace.requests);
    }
    ++lists_checked;
  }
  auto report =
      AnalyzeRequestLeakage(pipeline_->corpus, pipeline_->plan, mean_requests);
  EXPECT_GT(report.lists_evaluated, 0u);
  // Doubling schedule quantizes request counts; within a BFM list the
  // spread should stay within ~2 requests.
  EXPECT_LE(report.mean_within_list_spread, 2.0);
}

TEST_F(PipelineIntegrationTest, RandomMergeAblationLeaksMoreThanBfm) {
  // Build a second, random-merge pipeline and compare per-list df spreads:
  // the random plan mixes frequencies, which is exactly what leaks through
  // follow-up counts.
  PipelineOptions options = pipeline_->options;
  options.bfm_merge = false;
  options.build_baseline_index = false;
  options.build_query_log = false;
  options.sigma = pipeline_->sigma;
  auto random_pipeline = BuildPipeline(options);
  ASSERT_TRUE(random_pipeline.ok()) << random_pipeline.status();

  auto df_spread = [&](const zerber::MergePlan& plan,
                       const text::Corpus& corpus) {
    double total = 0.0;
    size_t n = 0;
    for (const auto& terms : plan.lists) {
      if (terms.size() < 2) continue;
      uint64_t mx = 0, mn = UINT64_MAX;
      for (text::TermId t : terms) {
        uint64_t df = corpus.DocumentFrequency(t);
        mx = std::max(mx, df);
        mn = std::min(mn, df);
      }
      total += static_cast<double>(mx) / static_cast<double>(std::max<uint64_t>(mn, 1));
      ++n;
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };

  double bfm_spread = df_spread(pipeline_->plan, pipeline_->corpus);
  double random_spread =
      df_spread((*random_pipeline)->plan, (*random_pipeline)->corpus);
  EXPECT_LT(bfm_spread, random_spread);
}

TEST_F(PipelineIntegrationTest, MultiTermQueriesApproximateBaselines) {
  // Section 3.2: multi-term queries run as sequences of single-term queries
  // and merge client-side, trading a little accuracy for hiding collection
  // statistics. Two references:
  //  * same scoring (normalized TF) with full-list accumulation — isolates
  //    the per-term top-k truncation cost; overlap should be high;
  //  * TFxIDF — additionally measures the missing-IDF cost the paper
  //    accepts; overlap should still be substantial.
  index::InvertedIndex tfidf = index::InvertedIndex::Build(
      pipeline_->corpus, index::ScoringModel::kTfIdf);
  ASSERT_TRUE(pipeline_->baseline.has_value());
  size_t checked = 0;
  double overlap_same_scoring = 0.0;
  double overlap_tfidf = 0.0;
  auto overlap = [](const std::vector<index::ScoredDoc>& got,
                    const std::vector<index::ScoredDoc>& ref) {
    std::set<text::DocId> ref_docs;
    for (const auto& d : ref) ref_docs.insert(d.doc_id);
    size_t hits = 0;
    for (const auto& d : got) hits += ref_docs.count(d.doc_id);
    return static_cast<double>(hits) / static_cast<double>(ref_docs.size());
  };
  for (const auto& query : pipeline_->query_log.queries) {
    if (query.size() < 2 || checked >= 30) continue;
    std::vector<text::TermId> terms(query.begin(), query.begin() + 2);
    if (pipeline_->corpus.DocumentFrequency(terms[0]) < 2 ||
        pipeline_->corpus.DocumentFrequency(terms[1]) < 2) {
      continue;
    }
    auto confidential = pipeline_->client->QueryTopKMulti(terms, 5);
    ASSERT_TRUE(confidential.ok());
    auto same_scoring = pipeline_->baseline->TopKMulti(terms, 5);
    auto idf_ranked = tfidf.TopKMulti(terms, 5);
    if (same_scoring.empty() || idf_ranked.empty()) continue;
    overlap_same_scoring += overlap(confidential->results, same_scoring);
    overlap_tfidf += overlap(confidential->results, idf_ranked);
    ++checked;
  }
  ASSERT_GT(checked, 10u);
  EXPECT_GT(overlap_same_scoring / static_cast<double>(checked), 0.6);
  EXPECT_GT(overlap_tfidf / static_cast<double>(checked), 0.25);
}

TEST_F(PipelineIntegrationTest, PipelineFromCorpusWorksWithHandmadeDocs) {
  text::Corpus corpus;
  text::Tokenizer tokenizer;
  corpus.AddDocumentText(
      "the chemical compound process control production line report", 0,
      tokenizer);
  corpus.AddDocumentText("project documentation for the production customer",
                         0, tokenizer);
  corpus.AddDocumentText("compound analysis compound results compound", 1,
                         tokenizer);
  corpus.AddDocumentText("customer presentation and email correspondence", 1,
                         tokenizer);

  PipelineOptions options;
  options.preset.r = 4.0;
  options.preset.training_fraction = 1.0;  // tiny corpus: train on all
  options.sigma = 0.01;
  options.build_query_log = false;
  auto p = BuildPipelineFromCorpus(std::move(corpus), options);
  ASSERT_TRUE(p.ok()) << p.status();

  text::TermId compound = (*p)->corpus.vocabulary().Lookup("compound");
  ASSERT_NE(compound, text::kInvalidTermId);
  auto result = (*p)->client->QueryTopK(compound, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 2u);
  EXPECT_EQ(result->results[0].doc_id, 2u);  // 3/5 of doc 2's tokens
}

}  // namespace
}  // namespace zr::core
