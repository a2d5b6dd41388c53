#include "zerber/persistence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>

#include "crypto/sha256.h"

namespace zr::zerber {
namespace {

std::string HexOf(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kHex[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kHex[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() : keys_("persist-test") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
  }

  // A populated server: 3 lists, 2 groups, 2 users, mixed elements.
  std::unique_ptr<IndexServer> MakeServer() {
    auto server =
        std::make_unique<IndexServer>(3, Placement::kTrsSorted, 11);
    // Provisioning before the test issues any traffic: quiescent.
    QuiescenceLock quiesced(server->quiescence());
    EXPECT_TRUE(server->acl().AddGroup(1).ok());
    EXPECT_TRUE(server->acl().AddGroup(2).ok());
    EXPECT_TRUE(server->acl().GrantMembership(7, 1).ok());
    EXPECT_TRUE(server->acl().GrantMembership(7, 2).ok());
    EXPECT_TRUE(server->acl().GrantMembership(8, 2).ok());
    for (int i = 0; i < 20; ++i) {
      crypto::GroupId group = (i % 3 == 0) ? 2 : 1;
      auto element = SealPostingElement(
          PostingPayload{static_cast<text::TermId>(i % 5),
                         static_cast<text::DocId>(i), 0.01 * i},
          group, 0.05 * (i % 19), &keys_);
      EXPECT_TRUE(element.ok());
      EXPECT_TRUE(
          server->Insert(7, static_cast<MergedListId>(i % 3), *element).ok());
    }
    return server;
  }

  std::string TempPath(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }

  crypto::KeyStore keys_;
};

TEST_F(PersistenceTest, SnapshotRoundTripPreservesEverything) {
  auto server = MakeServer();
  std::string snapshot = SerializeIndexSnapshot(*server);
  auto restored = ParseIndexSnapshot(snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // Both servers sit idle in a single-threaded test: quiescent.
  QuiescenceLock orig_quiesced(server->quiescence());
  QuiescenceLock loaded_quiesced((*restored)->quiescence());
  EXPECT_EQ((*restored)->NumLists(), server->NumLists());
  EXPECT_EQ((*restored)->TotalElements(), server->TotalElements());
  EXPECT_EQ((*restored)->TotalWireSize(), server->TotalWireSize());
  EXPECT_EQ((*restored)->placement(), server->placement());

  // Element-by-element, order preserved.
  for (size_t l = 0; l < server->NumLists(); ++l) {
    auto orig = server->GetList(static_cast<MergedListId>(l));
    auto loaded = (*restored)->GetList(static_cast<MergedListId>(l));
    ASSERT_TRUE(orig.ok() && loaded.ok());
    ASSERT_EQ((*loaded)->size(), (*orig)->size());
    for (size_t i = 0; i < (*orig)->size(); ++i) {
      EXPECT_EQ((*loaded)->elements()[i].group, (*orig)->elements()[i].group);
      EXPECT_DOUBLE_EQ((*loaded)->elements()[i].trs,
                       (*orig)->elements()[i].trs);
      EXPECT_EQ((*loaded)->elements()[i].sealed,
                (*orig)->elements()[i].sealed);
    }
  }

  // ACL state preserved.
  EXPECT_TRUE((*restored)->acl().IsMember(7, 1));
  EXPECT_TRUE((*restored)->acl().IsMember(7, 2));
  EXPECT_TRUE((*restored)->acl().IsMember(8, 2));
  EXPECT_FALSE((*restored)->acl().IsMember(8, 1));
}

TEST_F(PersistenceTest, RestoredServerAnswersFetches) {
  auto server = MakeServer();
  auto restored = ParseIndexSnapshot(SerializeIndexSnapshot(*server));
  ASSERT_TRUE(restored.ok());
  auto before = server->Fetch(7, 0, 0, 5);
  auto after = (*restored)->Fetch(7, 0, 0, 5);
  ASSERT_TRUE(before.ok() && after.ok());
  ASSERT_EQ(after->elements.size(), before->elements.size());
  for (size_t i = 0; i < before->elements.size(); ++i) {
    EXPECT_EQ(after->elements[i].sealed, before->elements[i].sealed);
  }
}

TEST_F(PersistenceTest, SaveAndLoadFile) {
  auto server = MakeServer();
  std::string path = TempPath("zr_persistence_test.idx");
  ASSERT_TRUE(SaveIndex(*server, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->TotalElements(), server->TotalElements());
  std::remove(path.c_str());
}

TEST_F(PersistenceTest, LoadMissingFileIsNotFound) {
  EXPECT_TRUE(LoadIndex("/nonexistent/zr.idx").status().IsNotFound());
}

TEST_F(PersistenceTest, ChecksumDetectsEveryBitFlipInHeader) {
  auto server = MakeServer();
  std::string snapshot = SerializeIndexSnapshot(*server);
  for (size_t byte : {size_t{0}, size_t{8}, snapshot.size() / 2}) {
    std::string corrupted = snapshot;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x01);
    EXPECT_TRUE(ParseIndexSnapshot(corrupted).status().IsCorruption())
        << "byte " << byte;
  }
}

TEST_F(PersistenceTest, TruncationDetected) {
  auto server = MakeServer();
  std::string snapshot = SerializeIndexSnapshot(*server);
  for (size_t keep : {size_t{0}, size_t{10}, snapshot.size() - 1}) {
    EXPECT_TRUE(
        ParseIndexSnapshot(snapshot.substr(0, keep)).status().IsCorruption())
        << "keep " << keep;
  }
}

TEST_F(PersistenceTest, EmptyServerRoundTrips) {
  IndexServer server(5, Placement::kRandomPlacement, 3);
  auto restored = ParseIndexSnapshot(SerializeIndexSnapshot(server));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->NumLists(), 5u);
  EXPECT_EQ((*restored)->TotalElements(), 0u);
  EXPECT_EQ((*restored)->placement(), Placement::kRandomPlacement);
}

// Regression pin: restore must rebuild the per-group element counts each
// MergedList maintains, or the Fetch exhaustion fast path (answered from
// group_counts in O(groups)) diverges from the actual accessible
// subsequence after a snapshot round trip.
TEST_F(PersistenceTest, RestoreRebuildsGroupCountsExhaustionFastPath) {
  auto server = MakeServer();
  auto restored = ParseIndexSnapshot(SerializeIndexSnapshot(*server));
  ASSERT_TRUE(restored.ok());

  // The restored server sits idle in a single-threaded test: quiescent.
  QuiescenceLock quiesced((*restored)->quiescence());
  for (size_t l = 0; l < (*restored)->NumLists(); ++l) {
    auto list = (*restored)->GetList(static_cast<MergedListId>(l));
    ASSERT_TRUE(list.ok());
    // group_counts must agree with a full scan of the restored list.
    std::map<crypto::GroupId, size_t> scanned;
    for (const auto& element : (*list)->elements()) ++scanned[element.group];
    EXPECT_EQ((*list)->group_counts(), scanned) << "list " << l;

    // And the fast-path exhaustion bit must match the scan-derived
    // accessible count at every window position, for users with full
    // (7), partial (8), and no (99) access.
    for (UserId user : {UserId{7}, UserId{8}, UserId{99}}) {
      size_t accessible = 0;
      for (const auto& element : (*list)->elements()) {
        if ((*restored)->acl().IsMember(user, element.group)) ++accessible;
      }
      for (size_t offset = 0; offset <= accessible + 1; ++offset) {
        for (size_t count : {size_t{0}, size_t{1}, size_t{100}}) {
          auto fetched =
              (*restored)->Fetch(user, static_cast<MergedListId>(l), offset,
                                 count);
          ASSERT_TRUE(fetched.ok());
          bool scan_exhausted =
              offset >= accessible || count >= accessible - offset;
          EXPECT_EQ(fetched->exhausted, scan_exhausted)
              << "list " << l << " user " << user << " offset " << offset
              << " count " << count;
        }
      }
    }
  }
}

// Sharded deployments persist each shard separately; restoring a shard
// must keep its handle residue class so post-restore inserts stay
// globally unique (handle % N == shard).
TEST_F(PersistenceTest, RestoreWithHandleSpacePreservesResidueClass) {
  HandleSpace space{4, 2};  // shard 2 of 4
  IndexServer server(2, Placement::kTrsSorted, 11, space);
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  EXPECT_TRUE(server.acl().AddGroup(1).ok());
  EXPECT_TRUE(server.acl().GrantMembership(7, 1).ok());
  uint64_t max_handle = 0;
  for (int i = 0; i < 6; ++i) {
    auto element = SealPostingElement(
        PostingPayload{1, static_cast<text::DocId>(i), 0.1}, 1, 0.1 * i,
        &keys_);
    ASSERT_TRUE(element.ok());
    auto handle = server.Insert(7, i % 2, *element);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(*handle % 4, 2u);
    max_handle = std::max(max_handle, *handle);
  }

  auto restored =
      ParseIndexSnapshot(SerializeIndexSnapshot(server), /*rng_seed=*/1,
                         space);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->handle_space().stride, 4u);
  EXPECT_EQ((*restored)->handle_space().offset, 2u);
  auto element = SealPostingElement(PostingPayload{1, 100, 0.1}, 1, 0.5,
                                    &keys_);
  ASSERT_TRUE(element.ok());
  auto handle = (*restored)->Insert(7, 0, *element);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(*handle % 4, 2u);       // still in the shard's residue class
  EXPECT_GT(*handle, max_handle);   // and past every restored handle
}

// Golden bytes of a two-element snapshot: sealed elements (AES-CTR, HMAC)
// and the SHA-256 checksum. Captured with the portable block routines
// alone; every host must reproduce them, so a snapshot written on a host
// without AES-NI and SHA-NI restores on one with them, and the reverse.
TEST_F(PersistenceTest, TwoElementSnapshotIsByteIdentical) {
  IndexServer server(2, Placement::kTrsSorted, 11);
  {
    // Provisioning before the test issues any traffic: quiescent.
    QuiescenceLock quiesced(server.quiescence());
    ASSERT_TRUE(server.acl().AddGroup(1).ok());
    ASSERT_TRUE(server.acl().AddGroup(2).ok());
    ASSERT_TRUE(server.acl().GrantMembership(7, 1).ok());
    ASSERT_TRUE(server.acl().GrantMembership(7, 2).ok());
    auto a = SealPostingElement(PostingPayload{1, 10, 0.25}, 1, 0.5, &keys_);
    auto b = SealPostingElement(PostingPayload{2, 20, 0.75}, 2, 0.25, &keys_);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(server.Insert(7, 0, *a).ok());
    ASSERT_TRUE(server.Insert(7, 1, *b).ok());
  }
  EXPECT_EQ(HexOf(SerializeIndexSnapshot(server)),
            "5a425249445830310102010101000000000000e03f1a27e3cbb20e0941ecca8d"
            "713c4ade0ea8de39ecc27b870d3fc656010202000000000000d03f1a27e3cbb2"
            "0e0941ed0157aa7ecb93058457787ec1e67bbd4021030201010702010722b761"
            "29c2a2fedffdb5f062e866959af5fe73cdd990e277b3b862e62f97e03e");
}

// The magic and `fields` under a valid checksum: the checksum has no key,
// so a hostile disk can recompute it.
std::string Checksummed(std::string_view fields) {
  std::string body = "ZBRIDX01";
  body.append(fields);
  crypto::Sha256Digest checksum = crypto::Sha256::Hash(body);
  body.append(reinterpret_cast<const char*>(checksum.data()), checksum.size());
  return body;
}

// A snapshot with no lists and the given ACL section: the parser must bound
// every count by the bytes left.
std::string ChecksummedSnapshot(std::string_view acl_section) {
  std::string fields;
  fields.push_back(0);  // placement
  fields.push_back(0);  // no lists
  fields.append(acl_section);
  return Checksummed(fields);
}

// varint64 2^40.
constexpr char kHugeCount[] = "\x80\x80\x80\x80\x80\x01";

TEST_F(PersistenceTest, RejectsGroupCountBeyondSnapshotSize) {
  std::string acl(kHugeCount, 6);
  acl += "\x01\x00";  // one real group with no users
  std::string snapshot = ChecksummedSnapshot(acl);
  EXPECT_TRUE(ParseIndexSnapshot(snapshot).status().IsCorruption());
  IndexServer server(0, Placement::kTrsSorted, 1);
  EXPECT_TRUE(RestoreSnapshotInto(&server, snapshot).IsCorruption());
}

TEST_F(PersistenceTest, RejectsUserCountBeyondSnapshotSize) {
  std::string acl = "\x01\x01";  // one group, id 1
  acl.append(kHugeCount, 6);
  acl += "\x07";  // one real user id
  std::string snapshot = ChecksummedSnapshot(acl);
  EXPECT_TRUE(ParseIndexSnapshot(snapshot).status().IsCorruption());
  IndexServer server(0, Placement::kTrsSorted, 1);
  EXPECT_TRUE(RestoreSnapshotInto(&server, snapshot).IsCorruption());

  // The same shape with an honest count restores.
  std::string honest = "\x01\x01\x01\x07";
  auto restored = ParseIndexSnapshot(ChecksummedSnapshot(honest));
  ASSERT_TRUE(restored.ok()) << restored.status();
  QuiescenceLock restored_quiesced((*restored)->quiescence());
  EXPECT_TRUE((*restored)->acl().IsMember(7, 1));
}

// A NaN key has no place in a list's order. A snapshot whose second list
// holds one is Corruption, found before any list is restored, so the target
// stays empty (recovery falls back to an older snapshot on Corruption).
TEST_F(PersistenceTest, NanKeyIsCorruptionBeforeAnyListIsRestored) {
  auto server = MakeServer();
  SnapshotBody body;
  {
    // The source sits idle in a single-threaded test: quiescent.
    QuiescenceLock quiesced(server->quiescence());
    for (size_t l = 0; l < server->NumLists(); ++l) {
      body.lists.push_back(
          server->GetList(static_cast<MergedListId>(l)).value()->elements());
    }
  }
  body.groups.push_back({1, {7}});
  const std::string honest = Checksummed(codec::Encode(body));
  ASSERT_FALSE(body.lists[1].empty());
  body.lists[1].back().trs = std::nan("");
  const std::string poisoned = Checksummed(codec::Encode(body));

  EXPECT_TRUE(ParseIndexSnapshot(poisoned).status().IsCorruption());
  IndexServer target(3, Placement::kTrsSorted, 11);
  EXPECT_TRUE(RestoreSnapshotInto(&target, poisoned).IsCorruption());
  EXPECT_EQ(target.TotalElements(), 0u);
  {
    QuiescenceLock quiesced(target.quiescence());
    EXPECT_EQ(target.acl().NumGroups(), 0u);
  }
  // The same snapshot with the key intact restores into the same server.
  ASSERT_TRUE(RestoreSnapshotInto(&target, honest).ok());
  EXPECT_EQ(target.TotalElements(), server->TotalElements());
}

TEST_F(PersistenceTest, SealedElementsStillOpenAfterRestore) {
  auto server = MakeServer();
  auto restored = ParseIndexSnapshot(SerializeIndexSnapshot(*server));
  ASSERT_TRUE(restored.ok());
  // The restored server sits idle in a single-threaded test: quiescent.
  QuiescenceLock quiesced((*restored)->quiescence());
  auto list = (*restored)->GetList(0);
  ASSERT_TRUE(list.ok());
  ASSERT_GT((*list)->size(), 0u);
  auto payload = OpenPostingElement((*list)->elements()[0], keys_);
  EXPECT_TRUE(payload.ok()) << payload.status();
}

}  // namespace
}  // namespace zr::zerber
