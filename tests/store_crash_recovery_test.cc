// Crash-injection suite for the durable storage engine.
//
// The core property (ISSUE 3 acceptance): for every WAL truncation point,
// recovery yields exactly the acknowledged prefix of mutations — no loss
// of acked writes, no resurrection of unacked ones — for both the single
// server and the 4-shard backend, under both transports.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "crypto/keys.h"
#include "net/messages.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "store/durable_service.h"
#include "store/fs.h"
#include "store/wal.h"
#include "zerber/posting_element.h"

namespace zr::store {
namespace {

namespace fs = std::filesystem;

/// Reference state reconstructed by applying a WAL record prefix.
struct Model {
  std::map<uint32_t, std::set<uint64_t>> alive;  // local list -> handles
  std::map<uint32_t, std::set<uint32_t>> members;  // group -> users

  void Apply(const WalRecord& record) {
    switch (record.type) {
      case WalRecord::Type::kInsert:
        alive[record.list].insert(record.element.handle);
        break;
      case WalRecord::Type::kDelete:
        alive[record.list].erase(record.handle);
        break;
      case WalRecord::Type::kAddGroup:
        members[record.group];
        break;
      case WalRecord::Type::kGrantMembership:
        members[record.group].insert(record.user);
        break;
      case WalRecord::Type::kRevokeMembership:
        members[record.group].erase(record.user);
        break;
    }
  }
};

/// Asserts one recovered partition server matches the model exactly.
void ExpectPartitionMatchesModel(zerber::IndexServer& server,
                                 const Model& model, const std::string& what) {
  // Recovered partitions are inspected single-threaded: quiescent.
  QuiescenceLock quiesced(server.quiescence());
  uint64_t model_elements = 0;
  for (size_t l = 0; l < server.NumLists(); ++l) {
    auto list = server.GetList(static_cast<uint32_t>(l));
    ASSERT_TRUE(list.ok());
    std::set<uint64_t> recovered;
    for (const auto& element : (*list)->elements()) {
      recovered.insert(element.handle);
    }
    std::set<uint64_t> expected;
    auto it = model.alive.find(static_cast<uint32_t>(l));
    if (it != model.alive.end()) expected = it->second;
    EXPECT_EQ(recovered, expected) << what << ", list " << l;
    model_elements += expected.size();
  }
  EXPECT_EQ(server.TotalElements(), model_elements) << what;
  for (const auto& [group, users] : model.members) {
    EXPECT_TRUE(server.acl().HasGroup(group)) << what << ", group " << group;
    for (uint32_t user = 1; user <= 16; ++user) {
      EXPECT_EQ(server.acl().IsMember(user, group), users.count(user) > 0)
          << what << ", user " << user << ", group " << group;
    }
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  CrashRecoveryTest() : keys_("crash-test") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
    root_ = fs::temp_directory_path() /
            ("zr_crash_test_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~CrashRecoveryTest() override { fs::remove_all(root_); }

  DurableOptions Options(const std::string& dir, size_t num_lists,
                         size_t num_shards) {
    DurableOptions options;
    options.data_dir = dir;
    options.num_lists = num_lists;
    options.num_shards = num_shards;
    options.seed = 5;
    return options;
  }

  net::InsertRequest MakeInsert(uint32_t list, crypto::GroupId group,
                                double trs) {
    auto element = zerber::SealPostingElement(
        zerber::PostingPayload{2, next_doc_++, 0.4}, group, trs, &keys_);
    EXPECT_TRUE(element.ok());
    net::InsertRequest request;
    request.user = 7;
    request.list = list;
    request.element = *element;
    return request;
  }

  /// Runs a small mixed workload (every record type) and returns the
  /// handles acked per global list.
  void RunWorkload(DurableIndexService& service, size_t num_lists,
                   int inserts) {
    ASSERT_TRUE(service.AddGroup(1).ok());
    ASSERT_TRUE(service.GrantMembership(7, 1).ok());
    ASSERT_TRUE(service.AddGroup(2).ok());
    ASSERT_TRUE(service.GrantMembership(7, 2).ok());
    ASSERT_TRUE(service.GrantMembership(9, 2).ok());
    std::vector<std::pair<uint32_t, uint64_t>> acked;
    for (int i = 0; i < inserts; ++i) {
      uint32_t list = static_cast<uint32_t>(i % num_lists);
      auto response =
          service.Insert(MakeInsert(list, (i % 3 == 0) ? 2 : 1, 0.03 * i));
      ASSERT_TRUE(response.ok());
      acked.emplace_back(list, response->handle);
    }
    // Delete every fourth acked element.
    for (size_t i = 0; i < acked.size(); i += 4) {
      net::DeleteRequest del;
      del.user = 7;
      del.list = acked[i].first;
      del.handle = acked[i].second;
      ASSERT_TRUE(service.Delete(del).ok());
    }
    ASSERT_TRUE(service.RevokeMembership(9, 2).ok());
  }

  /// Copies `src` into a fresh scratch directory named by `tag`.
  std::string Scratch(const std::string& src, const std::string& tag) {
    fs::path dst = root_ / ("scratch_" + tag);
    fs::remove_all(dst);
    fs::copy(src, dst, fs::copy_options::recursive);
    return dst.string();
  }

  crypto::KeyStore keys_;
  fs::path root_;
  text::DocId next_doc_ = 1;
};

// For EVERY byte-length prefix of the WAL, recovery reconstructs exactly
// the records fully contained in that prefix: acked mutations whose record
// landed are present, everything after the cut is gone.
TEST_F(CrashRecoveryTest, SingleServerEveryTruncationPointYieldsAckedPrefix) {
  constexpr size_t kLists = 3;
  std::string live_dir = (root_ / "live").string();
  {
    auto service = DurableIndexService::Open(Options(live_dir, kLists, 1));
    ASSERT_TRUE(service.ok()) << service.status();
    RunWorkload(**service, kLists, /*inserts=*/5);
  }  // clean close: the full WAL is on disk

  std::string shard_dir = DurableIndexService::PartitionDir(live_dir, 0);
  auto full = ReadWalBytes(DurableIndexService::WalPath(shard_dir, 1));
  ASSERT_TRUE(full.ok()) << full.status();
  WalReadResult reference = ScanWal(*full);
  ASSERT_TRUE(reference.clean);
  // Workload: 5 ACL ops + 5 inserts + 2 deletes + 1 revoke = 13 records.
  ASSERT_EQ(reference.records.size(), 13u);

  for (size_t keep = 0; keep <= full->size(); ++keep) {
    std::string dir = Scratch(live_dir, "byte_" + std::to_string(keep));
    std::string wal_path = DurableIndexService::WalPath(
        DurableIndexService::PartitionDir(dir, 0), 1);
    fs::resize_file(wal_path, keep);

    auto recovered = DurableIndexService::Open(Options(dir, kLists, 1));
    ASSERT_TRUE(recovered.ok())
        << "keep " << keep << ": " << recovered.status();

    Model model;
    size_t complete = 0;
    while (complete < reference.record_ends.size() &&
           reference.record_ends[complete] <= keep) {
      model.Apply(reference.records[complete]);
      ++complete;
    }
    ExpectPartitionMatchesModel((*recovered)->partition(0), model,
                                "keep " + std::to_string(keep));
    fs::remove_all(dir);
  }
}

// Same property on the 4-shard backend: one shard's WAL is cut at every
// record boundary (and one byte before/after — torn mid-record), the other
// shards stay complete; each shard recovers its own acked prefix.
TEST_F(CrashRecoveryTest, ShardedTruncationYieldsAckedPrefixPerShard) {
  constexpr size_t kLists = 8;
  constexpr size_t kShards = 4;
  constexpr size_t kVictim = 2;
  std::string live_dir = (root_ / "live").string();
  {
    auto service =
        DurableIndexService::Open(Options(live_dir, kLists, kShards));
    ASSERT_TRUE(service.ok()) << service.status();
    RunWorkload(**service, kLists, /*inserts=*/16);
  }

  // Reference scan per shard (records carry shard-local list ids).
  std::vector<WalReadResult> reference(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    auto bytes = ReadWalBytes(DurableIndexService::WalPath(
        DurableIndexService::PartitionDir(live_dir, s), 1));
    ASSERT_TRUE(bytes.ok());
    reference[s] = ScanWal(*bytes);
    ASSERT_TRUE(reference[s].clean);
    EXPECT_GE(reference[s].records.size(), 6u) << "shard " << s;
  }

  std::vector<uint64_t> cuts = {0};
  for (uint64_t end : reference[kVictim].record_ends) {
    if (end > 0) cuts.push_back(end - 1);  // torn mid-record
    cuts.push_back(end);                   // clean boundary
    cuts.push_back(end + 1);               // torn next length-prefix
  }

  for (uint64_t keep : cuts) {
    std::string dir = Scratch(live_dir, "shard_cut_" + std::to_string(keep));
    std::string wal_path = DurableIndexService::WalPath(
        DurableIndexService::PartitionDir(dir, kVictim), 1);
    uint64_t cut = std::min<uint64_t>(keep, fs::file_size(wal_path));
    fs::resize_file(wal_path, cut);

    auto recovered =
        DurableIndexService::Open(Options(dir, kLists, kShards));
    ASSERT_TRUE(recovered.ok())
        << "keep " << keep << ": " << recovered.status();

    for (size_t s = 0; s < kShards; ++s) {
      Model model;
      size_t complete = 0;
      const WalReadResult& ref = reference[s];
      uint64_t limit = (s == kVictim) ? cut : ref.valid_bytes;
      while (complete < ref.record_ends.size() &&
             ref.record_ends[complete] <= limit) {
        model.Apply(ref.records[complete]);
        ++complete;
      }
      ExpectPartitionMatchesModel(
          (*recovered)->partition(s), model,
          "keep " + std::to_string(keep) + ", shard " + std::to_string(s));
    }
    fs::remove_all(dir);
  }
}

// A crashed-and-recovered deployment answers top-k queries identically to
// one that never crashed — for the single and the 4-shard backend, through
// both transports. The crash leaves a torn half-record on one WAL (garbage
// appended after the acked tail), which recovery must discard.
class RecoverVsNeverCrashed : public ::testing::TestWithParam<size_t> {};

TEST_P(RecoverVsNeverCrashed, TopKResultsIdentical) {
  const size_t num_shards = GetParam();
  fs::path root = fs::temp_directory_path() /
                  ("zr_crash_topk_" + std::to_string(num_shards));
  fs::remove_all(root);
  fs::create_directories(root);

  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.sigma = 0.005;
  options.build_query_log = false;
  options.build_baseline_index = false;
  options.num_shards = num_shards;

  // Control: never crashed, fully in memory.
  auto control = core::BuildPipeline(options);
  ASSERT_TRUE(control.ok()) << control.status();

  // Durable twin (same seed => same corpus, keys, plan, TRS assignment).
  std::string data_dir = (root / "store").string();
  core::PipelineOptions durable_options = options;
  durable_options.data_dir = data_dir;
  auto durable = core::BuildPipeline(durable_options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_NE((*durable)->durable, nullptr);
  ASSERT_TRUE((*durable)->durable->Flush().ok());

  // "Crash": clone the store mid-flight and tear its WAL tail (a
  // half-written record that was never acked).
  std::string crash_dir = (root / "crashed").string();
  fs::copy(data_dir, crash_dir, fs::copy_options::recursive);
  {
    std::string wal_path = DurableIndexService::WalPath(
        DurableIndexService::PartitionDir(crash_dir, 0),
        (*durable)->durable->epoch(0));
    auto bytes = ReadWalBytes(wal_path);
    ASSERT_TRUE(bytes.ok());
    std::string torn = *bytes + "\x40\x01torn-half-record";
    ASSERT_TRUE(WriteFileAtomic(wal_path, torn, /*sync=*/false).ok());
  }

  DurableOptions recovery;
  recovery.data_dir = crash_dir;
  recovery.num_lists = (*durable)->plan.NumLists();
  recovery.placement = options.placement;
  recovery.seed = options.seed ^ 0x0F0F;
  recovery.num_shards = options.num_shards;
  auto recovered = DurableIndexService::Open(recovery);
  ASSERT_TRUE(recovered.ok()) << recovered.status();

  // Query a spread of terms through both transports; ranked results
  // (doc + score) must match the never-crashed control exactly.
  core::Pipeline& c = **control;
  core::Pipeline& d = **durable;
  const text::TermId num_terms = static_cast<text::TermId>(
      std::min<size_t>(40, c.corpus.vocabulary().size()));
  auto server = net::TcpServer::Start(recovered->get());
  ASSERT_TRUE(server.ok()) << server.status();
  for (net::TransportKind kind :
       {net::TransportKind::kDirect, net::TransportKind::kTcp}) {
    auto transport = net::MakeTransport(kind, recovered->get(),
                                        (*server)->address());
    core::ZerberRClient client(d.user, d.keys.get(), &d.plan,
                               transport.get(), &d.corpus.vocabulary(),
                               d.assigner.get());
    for (text::TermId term = 0; term < num_terms; ++term) {
      auto expected = c.client->QueryTopK(term, 5);
      auto actual = client.QueryTopK(term, 5);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(actual.ok())
          << net::TransportKindName(kind) << ": " << actual.status();
      ASSERT_EQ(actual->results.size(), expected->results.size())
          << net::TransportKindName(kind) << ", term " << term;
      for (size_t i = 0; i < expected->results.size(); ++i) {
        EXPECT_EQ(actual->results[i].doc_id, expected->results[i].doc_id)
            << net::TransportKindName(kind) << ", term " << term;
        EXPECT_DOUBLE_EQ(actual->results[i].score,
                         expected->results[i].score)
            << net::TransportKindName(kind) << ", term " << term;
      }
    }
  }
  fs::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(SingleAndSharded, RecoverVsNeverCrashed,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace zr::store
