// Partial-failure matrix for the cluster subsystem, against real
// shard-server processes:
//
//  * one shard down -> requests routed to it surface Status::Unavailable
//    in bounded time, and a MultiFetch spanning the dead shard fails
//    without stalling the healthy shards' batches;
//  * the circuit breaker opens after the configured threshold and
//    fail-fasts subsequent calls;
//  * a restarted shard (same data dir, same pinned address) replays its
//    WAL, passes the health probe, and rejoins — after which a
//    retry-with-backoff request succeeds and the recovered content equals
//    exactly the acked prefix from before the kill;
//  * a response that does not parse never sends its connection back to
//    the client's pool (against a fake shard, no process needed).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/process.h"
#include "cluster/router.h"
#include "cluster/shard_client.h"
#include "crypto/keys.h"
#include "net/messages.h"
#include "util/coding.h"
#include "zerber/posting_element.h"

namespace zr::cluster {
namespace {

using namespace std::chrono_literals;

constexpr size_t kShards = 3;
constexpr size_t kLists = 6;
constexpr uint32_t kUser = 7;
constexpr uint32_t kGroup = 1;
constexpr size_t kVictim = kShards - 1;  // owns lists {2, 5} (L % 3 == 2)

class ClusterFailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    binary_ = ShardServerBinary();
    if (::access(binary_.c_str(), X_OK) != 0) {
      GTEST_SKIP() << "shard-server binary not runnable at " << binary_
                   << " (set ZR_SHARD_SERVER)";
    }
    root_ = std::filesystem::temp_directory_path() /
            ("zr-cluster-failover-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
    std::filesystem::create_directories(root_, ec);

    std::vector<std::string> addrs;
    for (size_t s = 0; s < kShards; ++s) {
      // sync=group-commit: an insert is acked once its record is fsynced,
      // so every acked mutation must survive a SIGKILL — that durability
      // is exactly what the rejoin test asserts.
      shard_args_.push_back({
          "--shard=" + std::to_string(s),
          "--shards=" + std::to_string(kShards),
          "--lists=" + std::to_string(kLists),
          "--seed=99",
          "--data-dir=" + (root_ / "s").string() + std::to_string(s),
          "--sync=group-commit",
          "--listen=127.0.0.1:0",
      });
      auto proc = ShardProcess::Start(binary_, shard_args_[s]);
      ASSERT_TRUE(proc.ok()) << proc.status();
      procs_.push_back(std::move(proc).value());
      addrs.push_back(procs_[s]->addr());
      // Pin the ephemeral address the shard actually bound, so a restart
      // comes back where the router expects it (SO_REUSEADDR).
      shard_args_[s].back() = "--listen=" + procs_[s]->addr();
    }

    RouterService::Options options;
    options.shard_addrs = addrs;
    // Tight fault-handling so the matrix runs in test time: two attempts,
    // ~5ms backoff, breaker after two consecutive transport failures.
    options.client.deadlines = net::Deadlines::Of(/*connect_ms=*/200,
                                                  /*recv_ms=*/2000);
    options.client.max_attempts = 2;
    options.client.retry_backoff = {/*base_delay_ms=*/5, /*max_delay_ms=*/20,
                                    /*multiplier=*/2.0, /*jitter=*/0.0,
                                    /*seed=*/1};
    options.client.breaker_threshold = 2;
    options.client.breaker_backoff = {/*base_delay_ms=*/20,
                                      /*max_delay_ms=*/200,
                                      /*multiplier=*/2.0, /*jitter=*/0.0,
                                      /*seed=*/2};
    router_ = std::make_unique<RouterService>(kLists, options);
    ASSERT_TRUE(router_->WaitForAll(15000).ok());
    ASSERT_TRUE(router_->AddGroup(kGroup).ok());
    ASSERT_TRUE(router_->GrantMembership(kUser, kGroup).ok());

    keys_ = std::make_unique<crypto::KeyStore>("cluster-failover-keys");
    ASSERT_TRUE(keys_->CreateGroup(kGroup).ok());
  }

  void TearDown() override {
    router_.reset();
    for (auto& proc : procs_) {
      if (proc && proc->running()) (void)proc->Terminate();
    }
    procs_.clear();
    if (!root_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(root_, ec);
    }
  }

  // Inserts one element into `list` through the router; returns the ack.
  net::InsertResponse MustInsert(uint32_t list, uint32_t doc) {
    auto sealed = zerber::SealPostingElement(
        zerber::PostingPayload{/*term=*/list, /*doc=*/doc, 0.5}, kGroup,
        /*trs=*/0.25 + 0.001 * doc, keys_.get());
    EXPECT_TRUE(sealed.ok()) << sealed.status();
    net::InsertRequest request;
    request.user = kUser;
    request.list = list;
    request.element = std::move(sealed).value();
    auto response = router_->Insert(request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : net::InsertResponse{};
  }

  StatusOr<net::QueryResponse> Fetch(uint32_t list, uint64_t count = 16) {
    net::QueryRequest request;
    request.user = kUser;
    request.list = list;
    request.offset = 0;
    request.count = count;
    return router_->Fetch(request);
  }

  static void ExpectSameContent(const net::QueryResponse& want,
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
  std::unique_ptr<RouterService> router_;
  std::unique_ptr<crypto::KeyStore> keys_;
};

TEST_F(ClusterFailoverTest, DeadShardFailsUnavailableWithoutStallingOthers) {
  for (uint32_t list = 0; list < kLists; ++list) MustInsert(list, 1000 + list);
  procs_[kVictim]->Kill();

  // Healthy shards keep serving.
  auto healthy = Fetch(/*list=*/0);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_EQ(healthy->elements.size(), 1u);

  // The dead shard's list surfaces a typed Unavailable in bounded time
  // (two attempts x 200ms connect timeout + ~5ms backoff, not the
  // kernel's minutes-long SYN budget).
  auto start = std::chrono::steady_clock::now();
  auto dead = Fetch(/*list=*/kVictim);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsUnavailable()) << dead.status();
  EXPECT_LT(elapsed, 5s);

  // A MultiFetch spanning every shard fails (atomic semantics, identical
  // to ShardedIndexService) but does not stall: the healthy batches
  // complete, the dead shard's batch fails fast — by now the breaker is
  // open after two consecutive transport failures.
  net::MultiFetchRequest multi;
  multi.user = kUser;
  for (uint32_t list = 0; list < kLists; ++list) {
    multi.fetches.push_back({/*list=*/list, /*offset=*/0, /*count=*/4});
  }
  start = std::chrono::steady_clock::now();
  auto spanning = router_->MultiFetch(multi);
  elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(spanning.ok());
  EXPECT_TRUE(spanning.status().IsUnavailable()) << spanning.status();
  EXPECT_LT(elapsed, 5s);

  // Breaker open: subsequent calls fail fast without burning a connect
  // timeout per attempt.
  start = std::chrono::steady_clock::now();
  auto fast = Fetch(/*list=*/kVictim);
  elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(fast.ok());
  EXPECT_TRUE(fast.status().IsUnavailable());
  EXPECT_LT(elapsed, 1s);

  RouterStats stats = router_->router_stats();
  EXPECT_GT(stats.transport_errors, 0u);
  EXPECT_GT(stats.unavailable, 0u);
  EXPECT_GE(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.rejoins, 0u);
  EXPECT_FALSE(router_->shard_client(kVictim).available());

  // Aggregate stats treat the unreachable shard as zeros instead of
  // failing the scrape.
  zerber::ServerStats server_stats = router_->stats();
  EXPECT_GT(server_stats.insert_requests, 0u);
}

TEST_F(ClusterFailoverTest, RestartedShardRejoinsWithTheAckedPrefix) {
  // Acked mutations on the victim's lists (2 and 5 for N=3).
  for (uint32_t doc = 0; doc < 8; ++doc) {
    MustInsert(/*list=*/kVictim, 2000 + doc);
    MustInsert(/*list=*/kVictim + kShards, 3000 + doc);
  }
  auto before2 = Fetch(/*list=*/kVictim);
  auto before5 = Fetch(/*list=*/kVictim + kShards);
  ASSERT_TRUE(before2.ok());
  ASSERT_TRUE(before5.ok());
  ASSERT_EQ(before2->elements.size(), 8u);

  procs_[kVictim]->Kill();
  auto down = Fetch(/*list=*/kVictim);
  ASSERT_FALSE(down.ok());
  EXPECT_TRUE(down.status().IsUnavailable()) << down.status();

  // Restart on the pinned address: the shard replays its WAL and the
  // router's health probe (server-id echo) re-admits it.
  auto restarted = ShardProcess::Start(binary_, shard_args_[kVictim]);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  procs_[kVictim] = std::move(restarted).value();
  ASSERT_TRUE(router_->WaitForShard(kVictim, 15000).ok());
  EXPECT_TRUE(router_->shard_client(kVictim).available());

  // Recovered content is exactly the acked prefix.
  auto after2 = Fetch(/*list=*/kVictim);
  auto after5 = Fetch(/*list=*/kVictim + kShards);
  ASSERT_TRUE(after2.ok()) << after2.status();
  ASSERT_TRUE(after5.ok()) << after5.status();
  ExpectSameContent(*before2, *after2);
  ExpectSameContent(*before5, *after5);

  // And the rejoined shard accepts new writes with globally consistent
  // residue-class handles.
  net::InsertResponse ack = MustInsert(/*list=*/kVictim, 4000);
  EXPECT_EQ(router_->ShardOfHandle(ack.handle), kVictim);

  RouterStats stats = router_->router_stats();
  EXPECT_GE(stats.rejoins, 1u);
  EXPECT_GE(stats.probes, 1u);
}

TEST_F(ClusterFailoverTest, TypedErrorsPassThroughWithoutTrippingTheBreaker) {
  // The shard answered: a typed NotFound/PermissionDenied is not a fault.
  auto missing = Fetch(/*list=*/kLists + 5);
  ASSERT_FALSE(missing.ok());
  EXPECT_FALSE(missing.status().IsUnavailable());

  // A typed error that crosses the wire: deleting a handle that was never
  // issued. The shard answered — not a fault.
  net::DeleteRequest request;
  request.user = kUser;
  request.list = 0;
  request.handle = 123456789 * kShards;  // residue 0, never inserted
  auto denied = router_->Delete(request);
  ASSERT_FALSE(denied.ok());
  EXPECT_FALSE(denied.status().IsUnavailable()) << denied.status();

  RouterStats stats = router_->router_stats();
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_EQ(stats.breaker_opens, 0u);
  EXPECT_EQ(stats.unavailable, 0u);
}

TEST(ShardClientTest, UnparseableResponseBreaksTheSession) {
  // A fake shard that answers one Fetch with a well-framed garbage frame
  // and then a well-formed QueryResponse. The session must not go back to
  // the pool: the next Fetch would read the queued frame as its answer.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  std::string addr = "127.0.0.1:" + std::to_string(ntohs(sa.sin_port));

  std::thread fake_shard([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    ::close(listener);  // a reconnect is refused
    ASSERT_GE(fd, 0);
    char buf[4096];
    ASSERT_GT(::read(fd, buf, sizeof(buf)), 0);  // the Fetch request
    // QueryResponse tag followed by garbage, then a valid response.
    const std::string junk("\x02garbage", 8);
    std::string valid = net::Serialize(net::QueryResponse{});
    std::string frames;
    PutFixed32(&frames, static_cast<uint32_t>(junk.size()));
    frames += junk;
    PutFixed32(&frames, static_cast<uint32_t>(valid.size()));
    frames += valid;
    (void)::write(fd, frames.data(), frames.size());
    char drain[64];
    (void)::read(fd, drain, sizeof(drain));  // wait for the client
    ::close(fd);
  });

  {
    ShardClientOptions options;
    options.addr = addr;
    options.max_attempts = 1;
    ShardClient client(options);
    net::QueryRequest request;
    request.user = kUser;
    request.count = 1;
    auto first = client.Fetch(request);
    EXPECT_TRUE(first.status().IsCorruption()) << first.status();
    auto second = client.Fetch(request);
    EXPECT_FALSE(second.ok())
        << "the frame queued behind the bad one answered the next call";
  }
  fake_shard.join();
}

}  // namespace
}  // namespace zr::cluster
