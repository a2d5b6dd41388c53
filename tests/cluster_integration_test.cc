// Kill-a-shard-mid-workload integration test — the cluster subsystem's
// acceptance bar. A 4-shard cluster of real shard-server processes
// (sync=group-commit: acked means durable) serves the same logical index
// as an in-process ShardedIndexService reference. One shard is
// SIGKILLed, query traffic continues through the outage, the shard is
// restarted on its pinned address and rejoins — and afterwards every
// list and every client query is byte-identical to the never-crashed
// reference. A second test drives the same chaos through the LoadDriver
// and asserts the fault counters (retries, unavailable, rejoins) land in
// the LoadReport JSON.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/process.h"
#include "cluster/router.h"
#include "core/pipeline.h"
#include "load/driver.h"
#include "load/load_spec.h"
#include "util/random.h"

namespace zr::cluster {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kVictim = kShards - 1;

class ClusterIntegrationTest : public ::testing::Test {
 protected:
  core::PipelineOptions BaseOptions() {
    core::PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.sigma = 0.004;
    options.seed = 20090324;
    options.build_baseline_index = false;
    options.build_query_log = false;
    options.transport = net::TransportKind::kDirect;
    return options;
  }

  void SetUp() override {
    binary_ = ShardServerBinary();
    if (::access(binary_.c_str(), X_OK) != 0) {
      GTEST_SKIP() << "shard-server binary not runnable at " << binary_
                   << " (set ZR_SHARD_SERVER)";
    }
    root_ = std::filesystem::temp_directory_path() /
            ("zr-cluster-integration-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    std::filesystem::create_directories(root_, ec);

    procs_.resize(kShards);
    shard_args_.resize(kShards);
    core::PipelineOptions options = BaseOptions();
    // Keep retries snappy so the outage window costs test seconds, not
    // minutes, while staying generous enough for a loaded CI machine.
    options.cluster_client.deadlines =
        net::Deadlines::Of(/*connect_ms=*/300, /*recv_ms=*/5000);
    options.cluster_client.max_attempts = 2;
    options.cluster_client.retry_backoff = {/*base_delay_ms=*/5,
                                            /*max_delay_ms=*/50,
                                            /*multiplier=*/2.0,
                                            /*jitter=*/0.25, /*seed=*/1};
    options.cluster_client.breaker_threshold = 2;
    options.cluster_client.breaker_backoff = {/*base_delay_ms=*/20,
                                              /*max_delay_ms=*/200,
                                              /*multiplier=*/2.0,
                                              /*jitter=*/0.25, /*seed=*/2};
    options.shard_launcher =
        [this](size_t num_lists,
               uint64_t backend_seed) -> StatusOr<std::vector<std::string>> {
      std::vector<std::string> addrs;
      for (size_t s = 0; s < kShards; ++s) {
        shard_args_[s] = {
            "--shard=" + std::to_string(s),
            "--shards=" + std::to_string(kShards),
            "--lists=" + std::to_string(num_lists),
            "--seed=" + std::to_string(backend_seed),
            "--data-dir=" + (root_ / "s").string() + std::to_string(s),
            "--sync=group-commit",
            "--listen=127.0.0.1:0",
        };
        ZR_ASSIGN_OR_RETURN(procs_[s], ShardProcess::Start(binary_,
                                                           shard_args_[s]));
        addrs.push_back(procs_[s]->addr());
        // Pin the bound address for restarts (SO_REUSEADDR on the shard's
        // listener makes the rebind race-free).
        shard_args_[s].back() = "--listen=" + procs_[s]->addr();
      }
      return addrs;
    };
    auto cluster = core::BuildPipeline(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
  }

  void TearDown() override {
    cluster_.reset();
    for (auto& proc : procs_) {
      if (proc && proc->running()) (void)proc->Terminate();
    }
    procs_.clear();
    if (!root_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(root_, ec);
    }
  }

  void RestartVictim() {
    auto proc = ShardProcess::Start(binary_, shard_args_[kVictim]);
    ASSERT_TRUE(proc.ok()) << proc.status();
    procs_[kVictim] = std::move(proc).value();
  }

  static void ExpectSameResponse(const net::QueryResponse& want,
                                 const net::QueryResponse& got) {
    ASSERT_EQ(want.elements.size(), got.elements.size());
    EXPECT_EQ(want.exhausted, got.exhausted);
    for (size_t i = 0; i < want.elements.size(); ++i) {
      EXPECT_EQ(want.elements[i].group, got.elements[i].group);
      EXPECT_EQ(want.elements[i].handle, got.elements[i].handle);
      EXPECT_EQ(want.elements[i].sealed, got.elements[i].sealed);
    }
  }

  std::string binary_;
  std::filesystem::path root_;
  std::vector<std::vector<std::string>> shard_args_;
  std::vector<std::unique_ptr<ShardProcess>> procs_;
  std::unique_ptr<core::Pipeline> cluster_;
};

TEST_F(ClusterIntegrationTest, KilledShardRejoinsIdenticalToANeverCrashedRun) {
  // The never-crashed reference: the equivalent in-process deployment.
  core::PipelineOptions reference_options = BaseOptions();
  reference_options.num_shards = kShards;
  auto built = core::BuildPipeline(reference_options);
  ASSERT_TRUE(built.ok()) << built.status();
  core::Pipeline* reference = built->get();

  size_t num_lists = cluster_->plan.NumLists();
  ASSERT_EQ(reference->plan.NumLists(), num_lists);

  // Identical acked mutation batch on both backends.
  Rng rng(31337);
  std::vector<std::pair<zerber::MergedListId, uint64_t>> live;
  for (int op = 0; op < 120; ++op) {
    zerber::MergedListId list = rng.Uniform(static_cast<uint32_t>(num_lists));
    if (rng.Uniform(10) < 7 || live.empty()) {
      auto sealed = zerber::SealPostingElement(
          zerber::PostingPayload{/*term=*/1,
                                 /*doc=*/static_cast<text::DocId>(5000 + op),
                                 0.5},
          /*group=*/1, /*trs=*/rng.NextDouble(), cluster_->keys.get());
      ASSERT_TRUE(sealed.ok());
      net::InsertRequest request;
      request.user = cluster_->user;
      request.list = list;
      request.element = std::move(sealed).value();
      auto want = reference->sharded->Insert(request);
      auto got = cluster_->router->Insert(request);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(want->handle, got->handle);
      live.push_back({list, got->handle});
    } else {
      size_t pick = rng.Uniform(static_cast<uint32_t>(live.size()));
      net::DeleteRequest request;
      request.user = cluster_->user;
      request.list = live[pick].first;
      request.handle = live[pick].second;
      auto want = reference->sharded->Delete(request);
      auto got = cluster_->router->Delete(request);
      ASSERT_EQ(want.ok(), got.ok());
      live.erase(live.begin() + pick);
    }
  }

  // Kill one shard mid-workload.
  procs_[kVictim]->Kill();

  // Query-only traffic through the outage: healthy lists keep serving
  // (and stay identical to the reference); the victim's lists surface
  // Unavailable instead of stalling.
  bool saw_unavailable = false;
  for (zerber::MergedListId list = 0; list < num_lists; ++list) {
    net::QueryRequest request;
    request.user = cluster_->user;
    request.list = list;
    request.count = 8;
    auto got = cluster_->router->Fetch(request);
    if (cluster_->router->ShardOfList(list) == kVictim) {
      ASSERT_FALSE(got.ok());
      EXPECT_TRUE(got.status().IsUnavailable()) << got.status();
      saw_unavailable = true;
    } else {
      auto want = reference->sharded->Fetch(request);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameResponse(*want, *got);
    }
  }
  EXPECT_TRUE(saw_unavailable);

  // Restart + rejoin: WAL replay on the shard, health probe on the
  // router.
  RestartVictim();
  ASSERT_TRUE(cluster_->router->WaitForShard(kVictim, 15000).ok());

  // Full sweep: every list byte-identical to the never-crashed run.
  for (zerber::MergedListId list = 0; list < num_lists; ++list) {
    net::QueryRequest request;
    request.user = cluster_->user;
    request.list = list;
    request.count = 512;
    auto want = reference->sharded->Fetch(request);
    auto got = cluster_->router->Fetch(request);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << "list " << list << ": " << got.status();
    ExpectSameResponse(*want, *got);
  }

  // And through the full client protocol (top-k with ACL filtering and
  // the incremental fetch schedule).
  size_t checked = 0;
  for (text::TermId term : cluster_->corpus.vocabulary().AllTermIds()) {
    if (cluster_->corpus.DocumentFrequency(term) == 0) continue;
    if (term % 5 != 0) continue;  // sample for test speed
    auto want = reference->client->QueryTopK(term, 10);
    auto got = cluster_->client->QueryTopK(term, 10);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(want->results.size(), got->results.size());
    for (size_t i = 0; i < want->results.size(); ++i) {
      EXPECT_EQ(want->results[i].doc_id, got->results[i].doc_id);
      EXPECT_DOUBLE_EQ(want->results[i].score, got->results[i].score);
    }
    EXPECT_EQ(want->trace.requests, got->trace.requests);
    EXPECT_EQ(want->trace.bytes_fetched, got->trace.bytes_fetched);
    ++checked;
  }
  EXPECT_GE(checked, 10u);

  RouterStats stats = cluster_->router->router_stats();
  EXPECT_GT(stats.transport_errors, 0u);
  EXPECT_GT(stats.unavailable, 0u);
  EXPECT_GE(stats.breaker_opens, 1u);
  EXPECT_GE(stats.rejoins, 1u);
}

TEST_F(ClusterIntegrationTest, LoadDriverSurfacesFaultCountersInTheReport) {
  load::Deployment deployment = load::DeploymentFromPipeline(cluster_.get());
  ASSERT_EQ(deployment.backend, cluster_->router.get());
  ASSERT_NE(deployment.router_stats, nullptr);

  load::LoadSpec spec;
  spec.seed = 7;
  spec.workers = 4;
  spec.ops_per_worker = 0;
  spec.duration_ms = 3000;
  spec.warmup_inserts = 8;

  // Chaos: kill the victim a third of the way in, restart it another
  // third later, and wait for the rejoin *inside* the measured window so
  // the report's delta provably contains it.
  std::thread chaos([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    procs_[kVictim]->Kill();
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    RestartVictim();
    (void)cluster_->router->WaitForShard(kVictim, 10000);
  });

  load::LoadDriver driver(deployment, spec);
  auto report = driver.Run();
  chaos.join();
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_GT(report->cluster.attempts, 0u);
  EXPECT_GT(report->cluster.transport_errors, 0u);
  EXPECT_GT(report->cluster.unavailable, 0u);
  EXPECT_GE(report->cluster.breaker_opens, 1u);
  EXPECT_GE(report->cluster.rejoins, 1u);

  // The counters land in the JSON report loadgen emits for CI.
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"rejoins\""), std::string::npos);
  EXPECT_NE(json.find("\"unavailable\""), std::string::npos);
}

TEST(ShardProcessTest, BinaryThatCannotRunReportsTheExecFailure) {
  const std::string missing = "/nonexistent/shard_server";
  auto proc = ShardProcess::Start(missing, {"--listen=127.0.0.1:0"});
  ASSERT_FALSE(proc.ok());
  EXPECT_EQ(proc.status().message(),
            "cluster: cannot execute shard server '" + missing +
                "': No such file or directory");
}

// Without $ZR_SHARD_SERVER the binary is the shard_server beside the
// running executable (the test binary and shard_server share the build
// directory), whatever the working directory.
TEST(ShardProcessTest, BinaryIsFoundFromAnyWorkingDirectory) {
  const char* env = std::getenv("ZR_SHARD_SERVER");
  const std::string saved_env = env != nullptr ? env : "";
  const std::filesystem::path saved_cwd = std::filesystem::current_path();
  ::unsetenv("ZR_SHARD_SERVER");
  std::filesystem::current_path(std::filesystem::temp_directory_path());

  const std::string binary = ShardServerBinary();
  EXPECT_EQ(::access(binary.c_str(), X_OK), 0) << binary;

  std::filesystem::current_path(saved_cwd);
  if (!saved_env.empty()) ::setenv("ZR_SHARD_SERVER", saved_env.c_str(), 1);
}

}  // namespace
}  // namespace zr::cluster
