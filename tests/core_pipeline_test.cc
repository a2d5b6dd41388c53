#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "core/adversary.h"

namespace zr::core {
namespace {

PipelineOptions FastOptions() {
  PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 80;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  return options;
}

TEST(PipelineTest, BuildsWithFixedSigma) {
  auto p = BuildPipeline(FastOptions());
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_DOUBLE_EQ((*p)->sigma, 0.01);
  EXPECT_TRUE((*p)->sigma_sweep.empty());  // no cross-validation ran
  EXPECT_GT((*p)->assigner->NumTrained(), 0u);
  EXPECT_EQ((*p)->sharded->TotalElements(), (*p)->corpus.TotalPostings());
}

TEST(PipelineTest, CrossValidatesWhenSigmaZero) {
  PipelineOptions options = FastOptions();
  options.sigma = 0.0;
  options.sigma_sample_terms = 8;
  auto p = BuildPipeline(options);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_GT((*p)->sigma, 0.0);
  EXPECT_FALSE((*p)->sigma_sweep.empty());
}

TEST(PipelineTest, OptionalComponentsRespectFlags) {
  PipelineOptions options = FastOptions();
  auto p = BuildPipeline(options);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE((*p)->baseline.has_value());
  EXPECT_TRUE((*p)->query_log.queries.empty());

  options.build_baseline_index = true;
  options.build_query_log = true;
  auto full = BuildPipeline(options);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE((*full)->baseline.has_value());
  EXPECT_FALSE((*full)->query_log.queries.empty());
}

TEST(PipelineTest, RandomMergeAblationBuildsValidPlan) {
  PipelineOptions options = FastOptions();
  options.bfm_merge = false;
  auto p = BuildPipeline(options);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ((*p)->plan.strategy, "random");
  auto audit =
      AuditConfidentiality((*p)->corpus, (*p)->plan, options.preset.r);
  EXPECT_TRUE(audit.all_within_r);
}

TEST(PipelineTest, RandomPlacementAblationBuilds) {
  PipelineOptions options = FastOptions();
  options.placement = zerber::Placement::kRandomPlacement;
  auto p = BuildPipeline(options);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ((*p)->sharded->shard(0).placement(),
            zerber::Placement::kRandomPlacement);
}

TEST(PipelineTest, UserBelongsToEveryCorpusGroup) {
  auto p = BuildPipeline(FastOptions());
  ASSERT_TRUE(p.ok());
  zerber::IndexServer& server = (*p)->sharded->shard(0);
  // Single-threaded inspection of a built pipeline: quiescent.
  QuiescenceLock quiesced(server.quiescence());
  for (const auto& doc : (*p)->corpus.documents()) {
    EXPECT_TRUE(server.acl().IsMember((*p)->user, doc.group()));
  }
}

TEST(PipelineTest, DeterministicForSameOptions) {
  auto a = BuildPipeline(FastOptions());
  auto b = BuildPipeline(FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->sharded->TotalElements(), (*b)->sharded->TotalElements());
  EXPECT_EQ((*a)->plan.NumLists(), (*b)->plan.NumLists());
  text::TermId term = (*a)->corpus.vocabulary().AllTermIds()[0];
  auto ra = (*a)->client->QueryTopK(term, 5);
  auto rb = (*b)->client->QueryTopK(term, 5);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->results.size(), rb->results.size());
  for (size_t i = 0; i < ra->results.size(); ++i) {
    EXPECT_EQ(ra->results[i].doc_id, rb->results[i].doc_id);
  }
}

}  // namespace
}  // namespace zr::core
