#include "store/durable_service.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "crypto/keys.h"
#include "net/messages.h"
#include "store/fs.h"
#include "zerber/persistence.h"
#include "zerber/posting_element.h"

namespace zr::store {
namespace {

namespace fs = std::filesystem;

/// Caps every file this process writes at `limit` bytes (RLIMIT_FSIZE),
/// with SIGXFSZ ignored so a write past the cap fails with EFBIG instead of
/// killing the process; restores the limit and the handler on scope exit.
class FileSizeCap {
 public:
  explicit FileSizeCap(uint64_t limit) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit_), 0);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved_limit_;
    capped.rlim_cur = static_cast<rlim_t>(limit);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_limit_);
    std::signal(SIGXFSZ, saved_handler_);
  }

  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_limit_{};
  void (*saved_handler_)(int) = nullptr;
};

class DurableServiceTest : public ::testing::Test {
 protected:
  DurableServiceTest() : keys_("durable-test") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
    dir_ = fs::temp_directory_path() /
           ("zr_durable_test_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::remove_all(dir_);
  }
  ~DurableServiceTest() override { fs::remove_all(dir_); }

  DurableOptions Options(size_t num_lists = 4, size_t num_shards = 1) {
    DurableOptions options;
    options.data_dir = dir_.string();
    options.num_lists = num_lists;
    options.num_shards = num_shards;
    options.seed = 7;
    return options;
  }

  net::InsertRequest MakeInsert(uint32_t list, crypto::GroupId group,
                                double trs) {
    auto element = zerber::SealPostingElement(
        zerber::PostingPayload{1, next_doc_++, 0.5}, group, trs, &keys_);
    EXPECT_TRUE(element.ok());
    net::InsertRequest request;
    request.user = 7;
    request.list = list;
    request.element = *element;
    return request;
  }

  /// Handles alive in the backend, per global list.
  std::vector<std::set<uint64_t>> AliveHandles(DurableIndexService& service,
                                               size_t num_lists) {
    std::vector<std::set<uint64_t>> alive(num_lists);
    for (size_t l = 0; l < num_lists; ++l) {
      auto global = static_cast<uint32_t>(l);
      zerber::IndexServer& server =
          service.partition(service.ShardOfList(global));
      // Single-threaded inspection between acked mutations: quiescent.
      QuiescenceLock quiesced(server.quiescence());
      StatusOr<const zerber::MergedList*> list =
          server.GetList(service.LocalListId(global));
      EXPECT_TRUE(list.ok());
      for (const auto& element : (*list)->elements()) {
        alive[l].insert(element.handle);
      }
    }
    return alive;
  }

  crypto::KeyStore keys_;
  fs::path dir_;
  text::DocId next_doc_ = 1;
};

TEST_F(DurableServiceTest, FreshOpenStartsAtEpochOneWithEmptySnapshot) {
  auto service = DurableIndexService::Open(Options());
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_EQ((*service)->num_partitions(), 1u);
  EXPECT_EQ((*service)->epoch(0), 1u);
  std::string shard_dir = DurableIndexService::PartitionDir(dir_.string(), 0);
  EXPECT_TRUE(fs::exists(DurableIndexService::SnapshotPath(shard_dir, 1)));
  EXPECT_TRUE(fs::exists(DurableIndexService::WalPath(shard_dir, 1)));
}

TEST_F(DurableServiceTest, MutationsAndAclSurviveReopen) {
  std::vector<std::set<uint64_t>> expected;
  {
    auto service = DurableIndexService::Open(Options());
    ASSERT_TRUE(service.ok()) << service.status();
    ASSERT_TRUE((*service)->AddGroup(1).ok());
    ASSERT_TRUE((*service)->AddGroup(2).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 1).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 2).ok());
    ASSERT_TRUE((*service)->GrantMembership(8, 2).ok());

    uint64_t doomed = 0;
    for (int i = 0; i < 12; ++i) {
      auto response = (*service)->Insert(
          MakeInsert(static_cast<uint32_t>(i % 4), (i % 3 == 0) ? 2 : 1,
                     0.05 * i));
      ASSERT_TRUE(response.ok()) << response.status();
      if (i == 5) doomed = response->handle;
    }
    net::DeleteRequest del;
    del.user = 7;
    del.list = 5 % 4;
    del.handle = doomed;
    ASSERT_TRUE((*service)->Delete(del).ok());
    ASSERT_TRUE((*service)->RevokeMembership(8, 2).ok());
    expected = AliveHandles(**service, 4);
  }  // clean shutdown ("restart")

  auto reopened = DurableIndexService::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(AliveHandles(**reopened, 4), expected);
  zerber::IndexServer& server = (*reopened)->partition(0);
  EXPECT_EQ(server.TotalElements(), 11u);
  {
    // Recovered partition inspected single-threaded: quiescent.
    QuiescenceLock quiesced(server.quiescence());
    EXPECT_TRUE(server.acl().IsMember(7, 1));
    EXPECT_TRUE(server.acl().IsMember(7, 2));
    EXPECT_FALSE(server.acl().IsMember(8, 2));  // revoked before the restart
  }

  // Fetch through the recovered service: user 8 sees nothing (revoked).
  net::QueryRequest fetch;
  fetch.user = 8;
  fetch.list = 0;
  fetch.count = 100;
  auto response = (*reopened)->Fetch(fetch);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->elements.empty());
  EXPECT_TRUE(response->exhausted);
}

TEST_F(DurableServiceTest, RecoveredHandleSequenceNeverCollides) {
  std::set<uint64_t> handles;
  {
    auto service = DurableIndexService::Open(Options());
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->AddGroup(1).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 1).ok());
    for (int i = 0; i < 5; ++i) {
      auto response = (*service)->Insert(MakeInsert(0, 1, 0.5));
      ASSERT_TRUE(response.ok());
      handles.insert(response->handle);
    }
  }
  auto reopened = DurableIndexService::Open(Options());
  ASSERT_TRUE(reopened.ok());
  for (int i = 0; i < 5; ++i) {
    auto response = (*reopened)->Insert(MakeInsert(1, 1, 0.5));
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(handles.insert(response->handle).second)
        << "handle " << response->handle << " reused after recovery";
  }
}

TEST_F(DurableServiceTest, ExplicitRotationTruncatesWalAndSurvivesReopen) {
  std::vector<std::set<uint64_t>> expected;
  {
    auto service = DurableIndexService::Open(Options());
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->AddGroup(1).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 1).ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*service)->Insert(MakeInsert(i % 4, 1, 0.1 * i)).ok());
    }
    EXPECT_GT((*service)->wal_bytes(0), 0u);
    ASSERT_TRUE((*service)->RotateNow(0).ok());
    EXPECT_EQ((*service)->epoch(0), 2u);
    EXPECT_EQ((*service)->wal_bytes(0), 0u);
    // Post-rotation mutations land in the new epoch's WAL.
    ASSERT_TRUE((*service)->Insert(MakeInsert(2, 1, 0.9)).ok());
    expected = AliveHandles(**service, 4);
  }
  auto reopened = DurableIndexService::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(AliveHandles(**reopened, 4), expected);
}

TEST_F(DurableServiceTest, BackgroundRotationTriggersAtThreshold) {
  DurableOptions options = Options();
  options.snapshot_threshold_bytes = 256;  // a few insert records
  auto service = DurableIndexService::Open(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddGroup(1).ok());
  ASSERT_TRUE((*service)->GrantMembership(7, 1).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*service)->Insert(MakeInsert(i % 4, 1, 0.01 * i)).ok());
  }
  // The rotator runs asynchronously; give it a bounded grace period.
  for (int spin = 0; spin < 2000 && (*service)->epoch(0) == 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT((*service)->epoch(0), 1u);
  EXPECT_EQ((*service)->partition(0).TotalElements(), 40u);
}

TEST_F(DurableServiceTest, FallbackToPreviousGenerationIsLossless) {
  std::vector<std::set<uint64_t>> expected;
  {
    auto service = DurableIndexService::Open(Options());
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->AddGroup(1).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 1).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*service)->Insert(MakeInsert(0, 1, 0.2)).ok());
    }
    ASSERT_TRUE((*service)->RotateNow(0).ok());  // snapshot-2 has the state
    // More mutations after the rotation: they live in wal-2 only.
    ASSERT_TRUE((*service)->Insert(MakeInsert(1, 1, 0.7)).ok());
    expected = AliveHandles(**service, 4);
  }
  // Bit-rot the newest snapshot. Rotation kept generation 1's snapshot AND
  // WAL, so recovery falls back to snapshot-1 and replays the wal-1, wal-2
  // chain — reconstructing every acked mutation, not an older state.
  std::string shard_dir = DurableIndexService::PartitionDir(dir_.string(), 0);
  std::string newest = DurableIndexService::SnapshotPath(shard_dir, 2);
  auto bytes = ReadFileToString(newest);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(newest, *bytes, /*sync=*/false).ok());

  auto reopened = DurableIndexService::Open(Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(AliveHandles(**reopened, 4), expected);
  EXPECT_EQ((*reopened)->partition(0).TotalElements(), 5u);
  {
    zerber::IndexServer& server = (*reopened)->partition(0);
    // Recovered partition inspected single-threaded: quiescent.
    QuiescenceLock quiesced(server.quiescence());
    EXPECT_TRUE(server.acl().IsMember(7, 1));
  }
  // And the store rotated past every stale epoch on disk.
  EXPECT_GT((*reopened)->epoch(0), 2u);
}

TEST_F(DurableServiceTest, ScanSurvivesCorruptLengthPrefix) {
  // A corrupt varint decoding to a huge frame_len must read as a torn
  // record, not crash recovery (overflow regression pin).
  std::string log;
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\xff');
  log.push_back('\x01');
  log += "trailing garbage after a 2^63-ish length";
  WalReadResult scanned = ScanWal(log);
  EXPECT_EQ(scanned.records.size(), 0u);
  EXPECT_FALSE(scanned.clean);
}

TEST_F(DurableServiceTest, CorruptOnlySnapshotFailsOpen) {
  {
    auto service = DurableIndexService::Open(Options());
    ASSERT_TRUE(service.ok());
  }
  std::string shard_dir = DurableIndexService::PartitionDir(dir_.string(), 0);
  std::string snapshot = DurableIndexService::SnapshotPath(shard_dir, 1);
  ASSERT_TRUE(WriteFileAtomic(snapshot, "garbage", /*sync=*/false).ok());
  auto reopened = DurableIndexService::Open(Options());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

TEST_F(DurableServiceTest, ShardedStoreKeepsOnePairPerShardAndRecovers) {
  constexpr size_t kLists = 8;
  constexpr size_t kShards = 4;
  std::vector<std::set<uint64_t>> expected;
  {
    auto service = DurableIndexService::Open(Options(kLists, kShards));
    ASSERT_TRUE(service.ok()) << service.status();
    EXPECT_EQ((*service)->num_partitions(), kShards);
    ASSERT_TRUE((*service)->AddGroup(1).ok());
    ASSERT_TRUE((*service)->AddGroup(2).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 1).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 2).ok());
    uint64_t doomed_handle = 0;
    uint32_t doomed_list = 0;
    for (int i = 0; i < 24; ++i) {
      auto response = (*service)->Insert(
          MakeInsert(static_cast<uint32_t>(i % kLists), (i % 2) ? 1 : 2,
                     0.04 * i));
      ASSERT_TRUE(response.ok());
      if (i == 13) {
        doomed_handle = response->handle;
        doomed_list = 13 % kLists;
      }
    }
    net::DeleteRequest del;
    del.user = 7;
    del.list = doomed_list;
    del.handle = doomed_handle;
    ASSERT_TRUE((*service)->Delete(del).ok());
    expected = AliveHandles(**service, kLists);

    for (size_t s = 0; s < kShards; ++s) {
      std::string shard_dir =
          DurableIndexService::PartitionDir(dir_.string(), s);
      EXPECT_TRUE(fs::exists(DurableIndexService::WalPath(shard_dir, 1)))
          << "shard " << s;
    }
  }
  auto reopened = DurableIndexService::Open(Options(kLists, kShards));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(AliveHandles(**reopened, kLists), expected);
  // Every shard's ACL replica recovered (membership enforced shard-locally).
  for (size_t s = 0; s < kShards; ++s) {
    zerber::IndexServer& server = (*reopened)->partition(s);
    // Recovered partitions inspected single-threaded: quiescent.
    QuiescenceLock quiesced(server.quiescence());
    EXPECT_TRUE(server.acl().IsMember(7, 1));
    EXPECT_TRUE(server.acl().IsMember(7, 2));
  }
}

TEST_F(DurableServiceTest, MismatchedShapeIsRejected) {
  {
    auto service = DurableIndexService::Open(Options(/*num_lists=*/4));
    ASSERT_TRUE(service.ok());
  }
  auto reopened = DurableIndexService::Open(Options(/*num_lists=*/6));
  EXPECT_FALSE(reopened.ok());
}

TEST_F(DurableServiceTest, ConcurrentInsertsAllSurviveReopen) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::vector<std::vector<net::InsertRequest>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      batches[t].push_back(
          MakeInsert(static_cast<uint32_t>((t + i) % 4), 1, 0.3));
    }
  }
  std::set<uint64_t> acked;
  {
    auto service = DurableIndexService::Open(Options());
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->AddGroup(1).ok());
    ASSERT_TRUE((*service)->GrantMembership(7, 1).ok());
    std::mutex acked_mu;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const auto& request : batches[t]) {
          auto response = (*service)->Insert(request);
          if (response.ok()) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked.insert(response->handle);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(acked.size(), static_cast<size_t>(kThreads * kPerThread));
  }
  auto reopened = DurableIndexService::Open(Options());
  ASSERT_TRUE(reopened.ok());
  std::set<uint64_t> recovered;
  for (const auto& per_list : AliveHandles(**reopened, 4)) {
    recovered.insert(per_list.begin(), per_list.end());
  }
  EXPECT_EQ(recovered, acked);
}

// Every shard rotates on its own in the background while writers on all
// shards and a reader keep going; nothing acked is lost across a reopen.
TEST_F(DurableServiceTest, ShardsRotateInTheBackgroundUnderConcurrentTraffic) {
  constexpr size_t kLists = 8;
  constexpr size_t kShards = 4;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  DurableOptions options = Options(kLists, kShards);
  options.snapshot_threshold_bytes = 256;  // a few insert records
  std::vector<std::vector<net::InsertRequest>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      batches[t].push_back(
          MakeInsert(static_cast<uint32_t>((t + i) % kLists), 1, 0.3));
    }
  }
  std::set<uint64_t> acked;
  {
    auto service = DurableIndexService::Open(options);
    ASSERT_TRUE(service.ok()) << service.status();
    DurableIndexService& store = **service;
    ASSERT_TRUE(store.AddGroup(1).ok());
    ASSERT_TRUE(store.GrantMembership(7, 1).ok());
    std::mutex acked_mu;
    std::atomic<bool> writing{true};
    std::thread reader([&] {
      net::MultiFetchRequest fetch;
      fetch.user = 7;
      for (uint32_t l = 0; l < kLists; ++l) fetch.fetches.push_back({l, 0, 8});
      while (writing.load()) EXPECT_TRUE(store.MultiFetch(fetch).ok());
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (const auto& request : batches[t]) {
          auto response = store.Insert(request);
          ASSERT_TRUE(response.ok()) << response.status();
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.insert(response->handle);
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    writing.store(false);
    reader.join();
    for (size_t s = 0; s < kShards; ++s) {
      for (int spin = 0; spin < 2000 && store.epoch(s) == 1; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_GT(store.epoch(s), 1u) << "shard " << s;
    }
  }
  auto reopened = DurableIndexService::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::set<uint64_t> recovered;
  for (const auto& per_list : AliveHandles(**reopened, kLists)) {
    recovered.insert(per_list.begin(), per_list.end());
  }
  EXPECT_EQ(recovered, acked);
  EXPECT_EQ(acked.size(), static_cast<size_t>(kThreads * kPerThread));
}

// Fail-stop: after the WAL's first IO error, every later mutation of the
// shard fails fast with the sticky error before it touches the index. The
// failed delete itself stays applied (documented), nothing after it does.
TEST_F(DurableServiceTest, FailStopRefusesLaterMutationsBeforeApplyingThem) {
  DurableOptions options = Options();
  options.sync_mode = WalSyncMode::kNone;  // appends write synchronously
  auto service = DurableIndexService::Open(options);
  ASSERT_TRUE(service.ok()) << service.status();
  DurableIndexService& store = **service;
  ASSERT_TRUE(store.AddGroup(1).ok());
  ASSERT_TRUE(store.GrantMembership(7, 1).ok());
  std::vector<uint64_t> acked;
  for (int i = 0; i < 2; ++i) {
    auto response = store.Insert(MakeInsert(0, 1, 0.5));
    ASSERT_TRUE(response.ok()) << response.status();
    acked.push_back(response->handle);
  }
  auto erase = [&store](uint64_t handle) {
    net::DeleteRequest request;
    request.user = 7;
    request.list = 0;
    request.handle = handle;
    return store.Delete(request);
  };
  {
    FileSizeCap cap(store.wal_bytes(0));  // the WAL cannot grow
    auto first = erase(acked[0]);
    ASSERT_FALSE(first.ok());
    auto second = erase(acked[1]);
    EXPECT_EQ(second.status().ToString(), first.status().ToString());
    auto insert = store.Insert(MakeInsert(0, 1, 0.6));
    EXPECT_EQ(insert.status().ToString(), first.status().ToString());
  }
  EXPECT_EQ(AliveHandles(store, 4)[0], std::set<uint64_t>{acked[1]});
}

// A failed ACL change leaves the live ACL as the disk has it, and retrying
// it reports the same error instead of skipping a change no disk holds.
TEST_F(DurableServiceTest, FailedAclChangeIsNotAppliedAndItsRetryFails) {
  using AclCall = std::function<Status(DurableIndexService&)>;
  using AclProbe = std::function<bool(const zerber::AccessControl&)>;
  auto check = [this](const std::string& name, const AclCall& call,
                      const AclProbe& applied) {
    SCOPED_TRACE(name);
    DurableOptions options = Options();
    options.data_dir = (dir_ / name).string();
    options.sync_mode = WalSyncMode::kNone;
    auto service = DurableIndexService::Open(options);
    ASSERT_TRUE(service.ok()) << service.status();
    DurableIndexService& store = **service;
    ASSERT_TRUE(store.AddGroup(1).ok());
    ASSERT_TRUE(store.GrantMembership(7, 1).ok());
    FileSizeCap cap(store.wal_bytes(0));  // the WAL cannot grow
    Status failed = call(store);
    ASSERT_FALSE(failed.ok());
    {
      zerber::IndexServer& server = store.partition(0);
      // Single-threaded inspection between operator calls: quiescent.
      QuiescenceLock quiesced(server.quiescence());
      EXPECT_FALSE(applied(server.acl()));
    }
    EXPECT_EQ(call(store).ToString(), failed.ToString());
  };
  check(
      "add_group", [](DurableIndexService& s) { return s.AddGroup(2); },
      [](const zerber::AccessControl& acl) { return acl.HasGroup(2); });
  check(
      "grant", [](DurableIndexService& s) { return s.GrantMembership(8, 1); },
      [](const zerber::AccessControl& acl) { return acl.IsMember(8, 1); });
  check(
      "revoke",
      [](DurableIndexService& s) { return s.RevokeMembership(7, 1); },
      [](const zerber::AccessControl& acl) { return !acl.IsMember(7, 1); });
}

// Partition s of an in-process N-shard store holds exactly what a shard
// server (tools/shard_server.cc) recovering that partition's directory
// alone as shard s of N serves: a cluster can be loaded in process and
// served from shard processes.
TEST_F(DurableServiceTest, PartitionEqualsTheClusterShardOpenedAlone) {
  constexpr size_t kLists = 10;
  constexpr size_t kShards = 4;
  DurableOptions options = Options(kLists, kShards);
  options.placement = zerber::Placement::kRandomPlacement;  // seeds matter
  {
    auto service = DurableIndexService::Open(options);
    ASSERT_TRUE(service.ok()) << service.status();
    DurableIndexService& store = **service;
    ASSERT_TRUE(store.AddGroup(1).ok());
    ASSERT_TRUE(store.AddGroup(2).ok());
    ASSERT_TRUE(store.GrantMembership(7, 1).ok());
    ASSERT_TRUE(store.GrantMembership(7, 2).ok());
    ASSERT_TRUE(store.GrantMembership(9, 2).ok());
    uint64_t doomed = 0;
    for (int i = 0; i < 30; ++i) {
      auto response = store.Insert(MakeInsert(
          static_cast<uint32_t>(i % kLists), (i % 3 == 0) ? 2 : 1, 0.03 * i));
      ASSERT_TRUE(response.ok()) << response.status();
      if (i == 17) doomed = response->handle;
    }
    net::DeleteRequest del;
    del.user = 7;
    del.list = 17 % kLists;
    del.handle = doomed;
    ASSERT_TRUE(store.Delete(del).ok());
    ASSERT_TRUE(store.RevokeMembership(9, 2).ok());
  }  // clean close

  // One more insert after recovery pins the handle space and the
  // placement stream, not just the recovered state.
  net::InsertRequest extra = MakeInsert(0, 1, 0.42);

  // Each partition moved where a shard server keeps its store
  // (<data-dir>/shard-0000) and opened alone as shard s of kShards.
  std::vector<std::string> shard_snapshots;
  for (size_t s = 0; s < kShards; ++s) {
    std::string shard_dir = DurableIndexService::PartitionDir(
        (dir_ / ("cluster-" + std::to_string(s))).string(), 0);
    fs::create_directories(fs::path(shard_dir).parent_path());
    fs::copy(DurableIndexService::PartitionDir(dir_.string(), s), shard_dir,
             fs::copy_options::recursive);
    auto shard = DurableShard::Open(options, s, shard_dir);
    ASSERT_TRUE(shard.ok()) << shard.status();
    ASSERT_TRUE((*shard)->Insert(extra).ok());  // local list 0 of shard s
    shard_snapshots.push_back(
        zerber::SerializeIndexSnapshot((*shard)->server()));
  }

  auto reopened = DurableIndexService::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  for (size_t s = 0; s < kShards; ++s) {
    net::InsertRequest global = extra;
    global.list = static_cast<uint32_t>(s);  // local list 0 of shard s
    ASSERT_TRUE((*reopened)->Insert(global).ok());
    EXPECT_EQ(zerber::SerializeIndexSnapshot((*reopened)->partition(s)),
              shard_snapshots[s])
        << "shard " << s;
  }
}

}  // namespace
}  // namespace zr::store
