#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "zerber/zerber_index.h"

namespace zr::zerber {
namespace {

class DeletionTest : public ::testing::Test {
 protected:
  DeletionTest() : keys_("deletion-test") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
  }

  EncryptedPostingElement MakeElement(crypto::GroupId group, double trs) {
    auto e = SealPostingElement(PostingPayload{1, 1, 0.5}, group, trs, &keys_);
    EXPECT_TRUE(e.ok());
    return std::move(e).value();
  }

  crypto::KeyStore keys_;
};

TEST_F(DeletionTest, HandlesAreUniqueAndMonotone) {
  IndexServer server(2, Placement::kTrsSorted, 1);
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  ASSERT_TRUE(server.acl().AddGroup(1).ok());
  ASSERT_TRUE(server.acl().GrantMembership(1, 1).ok());
  auto h1 = server.Insert(1, 0, MakeElement(1, 0.5));
  auto h2 = server.Insert(1, 1, MakeElement(1, 0.6));
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_NE(*h1, *h2);
  EXPECT_GT(*h2, *h1);
  EXPECT_GT(*h1, 0u);  // 0 means "unassigned"
}

TEST_F(DeletionTest, DeleteRemovesExactlyTheElement) {
  IndexServer server(1, Placement::kTrsSorted, 1);
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  ASSERT_TRUE(server.acl().AddGroup(1).ok());
  ASSERT_TRUE(server.acl().GrantMembership(1, 1).ok());
  auto h1 = server.Insert(1, 0, MakeElement(1, 0.9));
  auto h2 = server.Insert(1, 0, MakeElement(1, 0.5));
  auto h3 = server.Insert(1, 0, MakeElement(1, 0.1));
  ASSERT_TRUE(h1.ok() && h2.ok() && h3.ok());

  ASSERT_TRUE(server.Delete(1, 0, *h2).ok());
  EXPECT_EQ(server.TotalElements(), 2u);
  auto list = server.GetList(0);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ((*list)->IndexOfHandle(*h2), MergedList::kNpos);
  EXPECT_EQ((*list)->IndexOfHandle(*h1), 0u);
  EXPECT_EQ((*list)->IndexOfHandle(*h3), 1u);
}

TEST_F(DeletionTest, DeleteChecksGroupMembership) {
  IndexServer server(1, Placement::kTrsSorted, 1);
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  ASSERT_TRUE(server.acl().AddGroup(1).ok());
  ASSERT_TRUE(server.acl().AddGroup(2).ok());
  ASSERT_TRUE(server.acl().GrantMembership(1, 1).ok());
  ASSERT_TRUE(server.acl().GrantMembership(1, 2).ok());
  ASSERT_TRUE(server.acl().GrantMembership(2, 1).ok());  // user 2: group 1 only
  auto h = server.Insert(1, 0, MakeElement(2, 0.5));
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(server.Delete(2, 0, *h).IsPermissionDenied());
  EXPECT_EQ(server.TotalElements(), 1u);
  EXPECT_TRUE(server.Delete(1, 0, *h).ok());
}

TEST_F(DeletionTest, DeleteUnknownHandleIsNotFound) {
  IndexServer server(1, Placement::kTrsSorted, 1);
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  ASSERT_TRUE(server.acl().AddGroup(1).ok());
  EXPECT_TRUE(server.Delete(1, 0, 12345).IsNotFound());
  EXPECT_TRUE(server.Delete(1, 9, 1).IsOutOfRange());
}

TEST_F(DeletionTest, ClientRemoveDocumentPurgesItFromSearch) {
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 60;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  auto pipeline = core::BuildPipeline(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  core::Pipeline& p = **pipeline;

  const text::Document& victim = p.corpus.documents()[5];
  uint64_t before = p.sharded->TotalElements();

  auto removed = p.client->RemoveDocument(victim);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, victim.DistinctTerms());
  EXPECT_EQ(p.sharded->TotalElements(), before - victim.DistinctTerms());

  // The document no longer appears in any of its terms' results.
  for (const auto& [term, tf] : victim.terms()) {
    (void)tf;
    auto result = p.client->QueryTopK(term, 50);
    ASSERT_TRUE(result.ok());
    for (const auto& doc : result->results) {
      EXPECT_NE(doc.doc_id, victim.id()) << "term " << term;
    }
  }

  // Re-indexing (the paper's "update") restores it.
  ASSERT_TRUE(p.client->IndexDocument(victim).ok());
  EXPECT_EQ(p.sharded->TotalElements(), before);
}

TEST_F(DeletionTest, RemoveDocumentIsIdempotentPerElement) {
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 40;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  auto pipeline = core::BuildPipeline(options);
  ASSERT_TRUE(pipeline.ok());
  core::Pipeline& p = **pipeline;

  const text::Document& victim = p.corpus.documents()[3];
  auto first = p.client->RemoveDocument(victim);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(*first, 0u);
  auto second = p.client->RemoveDocument(victim);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0u);  // nothing left to remove
}

}  // namespace
}  // namespace zr::zerber
