// Failure injection: corruption, permission and misuse paths must surface
// as Status errors — never crashes, never silent wrong answers.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "net/messages.h"
#include "util/random.h"
#include "zerber/posting_element.h"
#include "zerber/zerber_index.h"

namespace zr {
namespace {

TEST(FailureInjectionTest, RandomBytesNeverParseAsElement) {
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk;
    size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.NextU32() & 0xff));
    }
    std::string_view cursor = junk;
    zerber::EncryptedPostingElement parsed;
    if (codec::GetFields(&cursor, &parsed).ok()) {
      // Parsing random bytes may accidentally succeed structurally, but the
      // sealed payload must then fail authentication.
      crypto::KeyStore keys("failure-test");
      ASSERT_TRUE(keys.CreateGroup(parsed.group).ok());
      EXPECT_FALSE(zerber::OpenPostingElement(parsed, keys).ok());
    }
  }
}

TEST(FailureInjectionTest, BitflipsInSealedElementsAlwaysDetected) {
  crypto::KeyStore keys("bitflip-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  auto element = zerber::SealPostingElement(
      zerber::PostingPayload{5, 6, 0.75}, 1, 0.5, &keys);
  ASSERT_TRUE(element.ok());

  for (size_t byte = 0; byte < element->sealed.size(); ++byte) {
    for (uint8_t bit : {0, 3, 7}) {
      zerber::EncryptedPostingElement corrupted = *element;
      corrupted.sealed[byte] =
          static_cast<char>(corrupted.sealed[byte] ^ (1u << bit));
      EXPECT_TRUE(zerber::OpenPostingElement(corrupted, keys)
                      .status()
                      .IsCorruption())
          << "byte " << byte << " bit " << static_cast<int>(bit);
    }
  }
}

TEST(FailureInjectionTest, TruncatedWireMessagesAllFail) {
  std::string wire = net::Serialize(net::QueryRequest{1, 2, 3, 4});
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(net::Parse<net::QueryRequest>(wire.substr(0, n)).ok()) << n;
  }
}

TEST(FailureInjectionTest, ServerRejectsForeignGroupInsertsUnderChurn) {
  crypto::KeyStore keys("churn-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  ASSERT_TRUE(keys.CreateGroup(2).ok());
  zerber::IndexServer server(2, zerber::Placement::kTrsSorted, 3);
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  ASSERT_TRUE(server.acl().AddGroup(1).ok());
  ASSERT_TRUE(server.acl().AddGroup(2).ok());
  ASSERT_TRUE(server.acl().GrantMembership(1, 1).ok());

  auto own = zerber::SealPostingElement(zerber::PostingPayload{1, 1, 0.5}, 1,
                                        0.5, &keys);
  auto foreign = zerber::SealPostingElement(zerber::PostingPayload{1, 1, 0.5},
                                            2, 0.5, &keys);
  ASSERT_TRUE(own.ok() && foreign.ok());

  EXPECT_TRUE(server.Insert(1, 0, *own).ok());
  EXPECT_TRUE(server.Insert(1, 0, *foreign).status().IsPermissionDenied());

  // Revoke and verify the user loses read access immediately.
  ASSERT_TRUE(server.acl().RevokeMembership(1, 1).ok());
  auto fetched = server.Fetch(1, 0, 0, 10);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched->elements.empty());
}

TEST(FailureInjectionTest, QueryForTermWithoutVocabularyEntryFails) {
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 50;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  auto pipeline = core::BuildPipeline(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  // Term id far outside the vocabulary: the client cannot resolve a term
  // string for it.
  auto result = (*pipeline)->client->QueryTopK(10'000'000, 5);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfRange());
}

TEST(FailureInjectionTest, ClientWithoutServerGroupMembershipSeesNothing) {
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 60;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  auto pipeline = core::BuildPipeline(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  core::Pipeline& p = **pipeline;

  // A stranger (user 999, no memberships) with stolen *keys* still gets no
  // elements from the server: ACL operates independently of crypto. The
  // transport is user-agnostic — every request carries its own user id.
  core::ZerberRClient stranger(999, p.keys.get(), &p.plan, p.transport.get(),
                               &p.corpus.vocabulary(), p.assigner.get());
  text::TermId term = p.corpus.vocabulary().AllTermIds()[0];
  auto result = stranger.QueryTopK(term, 5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->results.empty());
}

TEST(FailureInjectionTest, CorruptedServerElementSurfacesAsError) {
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.preset.corpus.num_documents = 40;
  options.sigma = 0.01;
  options.build_query_log = false;
  options.build_baseline_index = false;
  auto pipeline = core::BuildPipeline(options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  core::Pipeline& p = **pipeline;

  // Maliciously re-insert a tampered copy of a stored element via a user
  // that *is* a member (the server cannot detect tampering — it has no
  // keys — but the client must). The pipeline is one shard, so global
  // list 0 is its shard's list 0.
  zerber::IndexServer& server = p.sharded->shard(0);
  // Single-threaded inspection of a built pipeline: quiescent.
  QuiescenceLock quiesced(server.quiescence());
  auto list = server.GetList(0);
  ASSERT_TRUE(list.ok());
  ASSERT_GT((*list)->size(), 0u);
  zerber::EncryptedPostingElement tampered = (*list)->elements()[0];
  tampered.sealed[tampered.sealed.size() / 2] ^= 0x10;
  tampered.trs = 1.0;  // float to the top so queries see it first
  ASSERT_TRUE(server.Insert(p.user, 0, tampered).ok());

  // Any query hitting list 0 must now fail with Corruption (the client
  // refuses to silently drop authenticated-encryption failures).
  bool saw_corruption = false;
  for (text::TermId t : p.plan.lists[0]) {
    auto result = p.client->QueryTopK(t, 5);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCorruption());
      saw_corruption = true;
      break;
    }
  }
  EXPECT_TRUE(saw_corruption);
}

}  // namespace
}  // namespace zr
