// Routing-equivalence acceptance test for the cluster subsystem: a
// cluster::RouterService over K real shard-server processes must be
// byte-identical — TopKResults, query traces, server-side counters — to an
// in-process zerber::ShardedIndexService built from the same seed. The
// routing math (zerber/routing.h) is shared by construction; this test
// proves the whole stack around it (the shard server's DurableShard, wire
// encode/decode, local-id translation, handle residues, stats scrape)
// preserves the equivalence, across both client flows (the incremental
// Fetch protocol and MultiFetch).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "cluster/router.h"
#include "core/pipeline.h"
#include "util/random.h"

namespace zr::cluster {
namespace {

constexpr size_t kShards = 3;

class ClusterEquivalenceTest : public ::testing::Test {
 protected:
  static core::PipelineOptions BaseOptions() {
    core::PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.004;
    options.seed = 424242;
    options.build_baseline_index = false;
    options.build_query_log = false;
    options.transport = net::TransportKind::kDirect;
    return options;
  }

  static void SetUpTestSuite() {
    binary_ = new std::string(ShardServerBinary());
    if (::access(binary_->c_str(), X_OK) != 0) return;  // tests skip

    root_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("zr-cluster-equivalence-" + std::to_string(::getpid())));
    std::error_code ec;
    std::filesystem::remove_all(*root_, ec);
    std::filesystem::create_directories(*root_, ec);

    // Reference: the equivalent in-process sharded deployment.
    core::PipelineOptions reference_options = BaseOptions();
    reference_options.num_shards = kShards;
    auto reference = core::BuildPipeline(reference_options);
    ASSERT_TRUE(reference.ok()) << reference.status();
    reference_ = reference->release();

    // Cluster: same options routed over kShards shard-server processes.
    procs_ = new std::vector<std::unique_ptr<ShardProcess>>(kShards);
    core::PipelineOptions cluster_options = BaseOptions();
    cluster_options.shard_launcher =
        [](size_t num_lists,
           uint64_t backend_seed) -> StatusOr<std::vector<std::string>> {
      std::vector<std::string> addrs;
      for (size_t s = 0; s < kShards; ++s) {
        std::vector<std::string> args = {
            "--shard=" + std::to_string(s),
            "--shards=" + std::to_string(kShards),
            "--lists=" + std::to_string(num_lists),
            "--seed=" + std::to_string(backend_seed),
            "--data-dir=" + (*root_ / "s").string() + std::to_string(s),
            "--sync=none",  // no fault injection here; speed over sync
            "--listen=127.0.0.1:0",
        };
        ZR_ASSIGN_OR_RETURN((*procs_)[s], ShardProcess::Start(*binary_, args));
        addrs.push_back((*procs_)[s]->addr());
      }
      return addrs;
    };
    auto clustered = core::BuildPipeline(cluster_options);
    ASSERT_TRUE(clustered.ok()) << clustered.status();
    cluster_ = clustered->release();
  }

  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
    delete reference_;
    reference_ = nullptr;
    if (procs_ != nullptr) {
      for (auto& proc : *procs_) {
        if (proc && proc->running()) (void)proc->Terminate();
      }
      delete procs_;
      procs_ = nullptr;
    }
    if (root_ != nullptr) {
      std::error_code ec;
      std::filesystem::remove_all(*root_, ec);
      delete root_;
      root_ = nullptr;
    }
    delete binary_;
    binary_ = nullptr;
  }

  void SetUp() override {
    if (cluster_ == nullptr) {
      GTEST_SKIP() << "shard-server binary not runnable at " << *binary_
                   << " (set ZR_SHARD_SERVER)";
    }
  }

  static void ExpectIdentical(const core::TopKResult& want,
                              const core::TopKResult& got) {
    ASSERT_EQ(want.results.size(), got.results.size());
    for (size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(want.results[i].doc_id, got.results[i].doc_id);
      EXPECT_DOUBLE_EQ(want.results[i].score, got.results[i].score);
    }
    EXPECT_EQ(want.trace.requests, got.trace.requests);
    EXPECT_EQ(want.trace.elements_fetched, got.trace.elements_fetched);
    EXPECT_EQ(want.trace.hits, got.trace.hits);
    EXPECT_EQ(want.trace.exhausted, got.trace.exhausted);
    EXPECT_EQ(want.trace.bytes_fetched, got.trace.bytes_fetched);
  }

  static std::string* binary_;
  static std::filesystem::path* root_;
  static std::vector<std::unique_ptr<ShardProcess>>* procs_;
  static core::Pipeline* reference_;
  static core::Pipeline* cluster_;
};

std::string* ClusterEquivalenceTest::binary_ = nullptr;
std::filesystem::path* ClusterEquivalenceTest::root_ = nullptr;
std::vector<std::unique_ptr<ShardProcess>>* ClusterEquivalenceTest::procs_ =
    nullptr;
core::Pipeline* ClusterEquivalenceTest::reference_ = nullptr;
core::Pipeline* ClusterEquivalenceTest::cluster_ = nullptr;

TEST_F(ClusterEquivalenceTest, DeploysTheRouterBackend) {
  ASSERT_NE(cluster_->router, nullptr);
  EXPECT_EQ(cluster_->router->num_shards(), kShards);
  EXPECT_EQ(cluster_->router->NumLists(), reference_->plan.NumLists());
  EXPECT_EQ(cluster_->sharded, nullptr);
}

TEST_F(ClusterEquivalenceTest, IncrementalFlowQueriesAreIdentical) {
  // Flow 1: the incremental Fetch protocol (initial response + geometric
  // follow-ups) — single-term top-k over every sampled term.
  size_t checked = 0;
  for (text::TermId term : cluster_->corpus.vocabulary().AllTermIds()) {
    if (cluster_->corpus.DocumentFrequency(term) == 0) continue;
    if (term % 7 != 0) continue;  // sample for test speed
    auto want = reference_->client->QueryTopK(term, 10);
    auto got = cluster_->client->QueryTopK(term, 10);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectIdentical(*want, *got);
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST_F(ClusterEquivalenceTest, MultiFetchFlowQueriesAreIdentical) {
  // Flow 2: multi-term queries batched through MultiFetch — the path that
  // fans out across shards on both backends.
  auto ids = cluster_->corpus.vocabulary().AllTermIds();
  ASSERT_GE(ids.size(), 12u);
  Rng rng(2026);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<text::TermId> terms;
    size_t width = 1 + rng.Uniform(4);
    for (size_t i = 0; i < width; ++i) {
      terms.push_back(ids[rng.Uniform(static_cast<uint32_t>(ids.size()))]);
    }
    auto want = reference_->client->QueryTopKMulti(terms, 5);
    auto got = cluster_->client->QueryTopKMulti(terms, 5);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectIdentical(*want, *got);
  }
}

TEST_F(ClusterEquivalenceTest, RandomizedMutationsKeepTheBackendsIdentical) {
  // Apply one identical randomized insert/delete/fetch stream to both
  // backends through the typed service API and require identical
  // responses — including identical handles (the residue-class handle
  // construction) and identical errors.
  Rng rng(77);
  size_t num_lists = reference_->plan.NumLists();
  std::vector<uint64_t> live_handles;
  std::vector<zerber::MergedListId> live_lists;

  for (int op = 0; op < 200; ++op) {
    uint32_t dice = rng.Uniform(10);
    zerber::MergedListId list = rng.Uniform(static_cast<uint32_t>(num_lists));
    if (dice < 4) {
      auto sealed = zerber::SealPostingElement(
          zerber::PostingPayload{/*term=*/dice, /*doc=*/1000 + dice, 0.5},
          /*group=*/1, /*trs=*/rng.NextDouble(), cluster_->keys.get());
      ASSERT_TRUE(sealed.ok());
      net::InsertRequest request;
      request.user = cluster_->user;
      request.list = list;
      request.element = std::move(sealed).value();
      auto want = reference_->sharded->Insert(request);
      auto got = cluster_->router->Insert(request);
      ASSERT_EQ(want.ok(), got.ok());
      if (want.ok()) {
        EXPECT_EQ(want->handle, got->handle);
        live_handles.push_back(got->handle);
        live_lists.push_back(list);
      }
    } else if (dice < 6 && !live_handles.empty()) {
      size_t pick = rng.Uniform(static_cast<uint32_t>(live_handles.size()));
      net::DeleteRequest request;
      request.user = cluster_->user;
      request.list = live_lists[pick];
      request.handle = live_handles[pick];
      auto want = reference_->sharded->Delete(request);
      auto got = cluster_->router->Delete(request);
      ASSERT_EQ(want.ok(), got.ok());
      live_handles.erase(live_handles.begin() + pick);
      live_lists.erase(live_lists.begin() + pick);
    } else {
      net::QueryRequest request;
      request.user = cluster_->user;
      request.list = list;
      request.offset = rng.Uniform(4);
      request.count = 1 + rng.Uniform(16);
      auto want = reference_->sharded->Fetch(request);
      auto got = cluster_->router->Fetch(request);
      ASSERT_EQ(want.ok(), got.ok());
      if (!want.ok()) continue;
      ASSERT_EQ(want->elements.size(), got->elements.size());
      EXPECT_EQ(want->exhausted, got->exhausted);
      for (size_t i = 0; i < want->elements.size(); ++i) {
        EXPECT_EQ(want->elements[i].group, got->elements[i].group);
        EXPECT_EQ(want->elements[i].handle, got->elements[i].handle);
        EXPECT_EQ(want->elements[i].sealed, got->elements[i].sealed);
      }
    }
  }
}

TEST_F(ClusterEquivalenceTest, ServerStatsCountersMatchTheInProcessBackend) {
  // The scraped-and-summed stats of the cluster equal the in-process
  // aggregate — counters only; the *_latency_ns sums are timing.
  zerber::ServerStats want = reference_->sharded->stats();
  zerber::ServerStats got = cluster_->router->stats();
  EXPECT_EQ(want.fetch_requests, got.fetch_requests);
  EXPECT_EQ(want.insert_requests, got.insert_requests);
  EXPECT_EQ(want.insert_denied, got.insert_denied);
  EXPECT_EQ(want.delete_requests, got.delete_requests);
  EXPECT_EQ(want.delete_denied, got.delete_denied);
  EXPECT_EQ(want.elements_served, got.elements_served);
  EXPECT_EQ(want.bytes_served, got.bytes_served);
}

TEST_F(ClusterEquivalenceTest, RouterReportsNoFaultsOnAHealthyCluster) {
  RouterStats stats = cluster_->router->router_stats();
  EXPECT_GT(stats.attempts, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_EQ(stats.unavailable, 0u);
  EXPECT_EQ(stats.breaker_opens, 0u);
}

}  // namespace
}  // namespace zr::cluster
