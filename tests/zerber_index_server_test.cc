#include "zerber/zerber_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace zr::zerber {
namespace {

class IndexServerTest : public ::testing::Test {
 protected:
  IndexServerTest() : keys_("server-test") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
  }

  EncryptedPostingElement MakeElement(crypto::GroupId group, double trs,
                                      text::TermId term = 1,
                                      text::DocId doc = 1) {
    auto e = SealPostingElement(PostingPayload{term, doc, 0.5}, group, trs,
                                &keys_);
    EXPECT_TRUE(e.ok());
    return std::move(e).value();
  }

  // By pointer: a thread-safe IndexServer owns mutexes and is immovable.
  std::unique_ptr<IndexServer> MakeServer(
      Placement placement = Placement::kTrsSorted) {
    auto server_holder = std::make_unique<IndexServer>(4, placement, 77);
    // Provisioning before the test issues any traffic: quiescent.
    IndexServer& server = *server_holder;
    QuiescenceLock quiesced(server.quiescence());
    EXPECT_TRUE(server.acl().AddGroup(1).ok());
    EXPECT_TRUE(server.acl().AddGroup(2).ok());
    EXPECT_TRUE(server.acl().GrantMembership(kAlice, 1).ok());
    EXPECT_TRUE(server.acl().GrantMembership(kAlice, 2).ok());
    EXPECT_TRUE(server.acl().GrantMembership(kBob, 1).ok());
    return server_holder;
  }

  static constexpr UserId kAlice = 10;
  static constexpr UserId kBob = 20;
  crypto::KeyStore keys_;
};

TEST_F(IndexServerTest, InsertRequiresGroupMembership) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  EXPECT_TRUE(server.Insert(kBob, 0, MakeElement(1, 0.5)).ok());
  EXPECT_TRUE(
      server.Insert(kBob, 0, MakeElement(2, 0.5)).status().IsPermissionDenied());
  EXPECT_EQ(server.TotalElements(), 1u);
}

TEST_F(IndexServerTest, InsertRejectsInvalidList) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  EXPECT_TRUE(server.Insert(kAlice, 99, MakeElement(1, 0.5)).status().IsOutOfRange());
}

TEST_F(IndexServerTest, SortedPlacementKeepsTrsDescending) {
  auto server_holder = MakeServer(Placement::kTrsSorted);
  IndexServer& server = *server_holder;
  for (double trs : {0.3, 0.9, 0.1, 0.7, 0.5}) {
    ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, trs)).ok());
  }
  // Single-threaded test: quiescent once the inserts above returned.
  QuiescenceLock quiesced(server.quiescence());
  auto list = server.GetList(0);
  ASSERT_TRUE(list.ok());
  const auto& elements = (*list)->elements();
  ASSERT_EQ(elements.size(), 5u);
  for (size_t i = 1; i < elements.size(); ++i) {
    EXPECT_GE(elements[i - 1].trs, elements[i].trs);
  }
}

TEST_F(IndexServerTest, FetchReturnsRequestedWindow) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        server.Insert(kAlice, 0, MakeElement(1, 1.0 - 0.05 * i)).ok());
  }
  auto fetched = server.Fetch(kAlice, 0, 2, 3);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->elements.size(), 3u);
  EXPECT_FALSE(fetched->exhausted);
  EXPECT_GT(fetched->wire_bytes, 0u);
  // Window [2,5): TRS 0.90, 0.85, 0.80.
  EXPECT_NEAR(fetched->elements[0].trs, 0.90, 1e-12);
  EXPECT_NEAR(fetched->elements[2].trs, 0.80, 1e-12);
}

TEST_F(IndexServerTest, FetchClampsAtEndAndReportsExhausted) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.5)).ok());
  }
  auto fetched = server.Fetch(kAlice, 0, 3, 100);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->elements.size(), 2u);
  EXPECT_TRUE(fetched->exhausted);

  auto beyond = server.Fetch(kAlice, 0, 50, 10);
  ASSERT_TRUE(beyond.ok());
  EXPECT_TRUE(beyond->elements.empty());
  EXPECT_TRUE(beyond->exhausted);
}

TEST_F(IndexServerTest, FetchFiltersInaccessibleGroups) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  // Interleave group-1 and group-2 elements.
  for (int i = 0; i < 6; ++i) {
    crypto::GroupId g = (i % 2 == 0) ? 1 : 2;
    ASSERT_TRUE(
        server.Insert(kAlice, 0, MakeElement(g, 1.0 - 0.1 * i)).ok());
  }
  // Bob is only in group 1: sees 3 elements, positions unaffected by
  // group-2 entries.
  auto fetched = server.Fetch(kBob, 0, 0, 10);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->elements.size(), 3u);
  for (const auto& e : fetched->elements) EXPECT_EQ(e.group, 1u);
  EXPECT_TRUE(fetched->exhausted);

  // Offset addresses Bob's accessible subsequence.
  auto offset_fetch = server.Fetch(kBob, 0, 1, 1);
  ASSERT_TRUE(offset_fetch.ok());
  ASSERT_EQ(offset_fetch->elements.size(), 1u);
  EXPECT_NEAR(offset_fetch->elements[0].trs, 0.8, 1e-12);
  EXPECT_FALSE(offset_fetch->exhausted);  // one more group-1 element remains
}

TEST_F(IndexServerTest, ExhaustedConsidersOnlyAccessibleRemainder) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  // Bob-accessible element first, then only group-2 elements.
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.9)).ok());
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(2, 0.5)).ok());
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(2, 0.4)).ok());
  auto fetched = server.Fetch(kBob, 0, 0, 1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->elements.size(), 1u);
  // Nothing else Bob can see: exhausted despite 2 remaining elements.
  EXPECT_TRUE(fetched->exhausted);
}

TEST_F(IndexServerTest, FetchRejectsInvalidList) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  EXPECT_TRUE(server.Fetch(kAlice, 42, 0, 1).status().IsOutOfRange());
}

TEST_F(IndexServerTest, RandomPlacementScattersElements) {
  auto server_holder = MakeServer(Placement::kRandomPlacement);
  IndexServer& server = *server_holder;
  // Insert with strictly increasing TRS. Random placement stores each
  // element under a key it draws, so the list is in key order by
  // construction, but the insertion order (handles ascend with it) must
  // be scattered: it stays sorted either way with probability ~2/20!.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.05 * i)).ok());
  }
  // Single-threaded test: quiescent once the inserts above returned.
  QuiescenceLock quiesced(server.quiescence());
  auto list = server.GetList(0);
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE((*list)->CheckHandleIndex());
  const auto& elements = (*list)->elements();
  auto by_handle = [](const auto& a, const auto& b) {
    return a.handle < b.handle;
  };
  bool ascending = std::is_sorted(elements.begin(), elements.end(), by_handle);
  bool descending =
      std::is_sorted(elements.rbegin(), elements.rend(), by_handle);
  EXPECT_FALSE(ascending || descending);
}

// A NaN TRS has no place in a list's order: Insert refuses it as a bad
// argument, which counts as a request but not as an ACL denial.
TEST_F(IndexServerTest, InsertRejectsNanTrs) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.5)).ok());
  ServerStats before = server.stats();
  auto nan = server.Insert(kAlice, 0, MakeElement(1, std::nan("")));
  EXPECT_TRUE(nan.status().IsInvalidArgument()) << nan.status();
  ServerStats window = server.stats() - before;
  EXPECT_EQ(window.insert_requests, 1u);
  EXPECT_EQ(window.insert_denied, 0u);
  EXPECT_EQ(server.TotalElements(), 1u);
}

// Replay and restore only see what Insert accepted, so a NaN key there is
// corruption, refused before the list changes.
TEST_F(IndexServerTest, ReplayAndRestoreRefuseNanTrsAsCorruption) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  // Single-threaded test: quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  EncryptedPostingElement good = MakeElement(1, 0.5);
  good.handle = 100;
  EncryptedPostingElement bad = MakeElement(1, std::nan(""));
  bad.handle = 101;
  EXPECT_TRUE(server.ReplayInsert(0, bad).IsCorruption());
  EXPECT_TRUE(server.RestoreElements(0, {good, bad}).IsCorruption());
  EXPECT_EQ(server.TotalElements(), 0u);
}

TEST_F(IndexServerTest, FetchCountZeroIsWellDefined) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.5)).ok());
  }
  // count == 0 fetches nothing; exhausted iff offset is at or past the end
  // of the accessible subsequence.
  auto at_start = server.Fetch(kAlice, 0, 0, 0);
  ASSERT_TRUE(at_start.ok());
  EXPECT_TRUE(at_start->elements.empty());
  EXPECT_FALSE(at_start->exhausted);
  EXPECT_EQ(at_start->wire_bytes, 0u);

  auto at_end = server.Fetch(kAlice, 0, 3, 0);
  ASSERT_TRUE(at_end.ok());
  EXPECT_TRUE(at_end->elements.empty());
  EXPECT_TRUE(at_end->exhausted);
  EXPECT_EQ(at_end->wire_bytes, 0u);

  // Empty accessible list: always exhausted, even at offset 0 / count 0.
  auto empty_list = server.Fetch(kAlice, 1, 0, 0);
  ASSERT_TRUE(empty_list.ok());
  EXPECT_TRUE(empty_list->exhausted);
}

TEST_F(IndexServerTest, FetchOffsetPastAccessibleEndIsExhausted) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  // 2 elements Bob can see, 3 he cannot.
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.9)).ok());
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(2, 0.8)).ok());
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(2, 0.7)).ok());
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.6)).ok());
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(2, 0.5)).ok());
  // Offset addresses the accessible subsequence (2 long for Bob); any
  // offset >= 2 is empty and exhausted, regardless of the 3 foreign
  // elements.
  for (size_t offset : {2u, 3u, 50u}) {
    auto fetched = server.Fetch(kBob, 0, offset, 4);
    ASSERT_TRUE(fetched.ok()) << "offset " << offset;
    EXPECT_TRUE(fetched->elements.empty()) << "offset " << offset;
    EXPECT_TRUE(fetched->exhausted) << "offset " << offset;
    EXPECT_EQ(fetched->wire_bytes, 0u) << "offset " << offset;
  }
}

TEST_F(IndexServerTest, FetchWithNoAccessibleGroupsIsEmptyAndExhausted) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  constexpr UserId kCarol = 30;  // no memberships at all
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.5)).ok());
  }
  auto fetched = server.Fetch(kCarol, 0, 0, 10);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched->elements.empty());
  EXPECT_TRUE(fetched->exhausted);
  EXPECT_EQ(fetched->wire_bytes, 0u);
}

// Every window equals the reference slice of the accessible subsequence,
// and the O(groups) exhaustion answer agrees with the full-scan definition
// (nothing accessible remains past the window). Bob lacks group 2, so his
// windows are served by a walk over the ACL, Alice's by position. List 0 is
// short and checks every window; list 1 is long and checks deep ones.
TEST_F(IndexServerTest, FetchWindowsEqualTheAccessibleSlice) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  // List 0: 12 elements, every third in group 2 (Bob reads 8).
  for (int i = 0; i < 12; ++i) {
    crypto::GroupId g = (i % 3 == 2) ? 2 : 1;
    ASSERT_TRUE(
        server.Insert(kAlice, 0, MakeElement(g, 1.0 - 0.01 * i)).ok());
  }
  // List 1: 2,000 elements, every fifth in group 2 (Bob reads 1,600).
  for (int i = 0; i < 2000; ++i) {
    crypto::GroupId g = (i % 5 == 4) ? 2 : 1;
    ASSERT_TRUE(
        server.Insert(kAlice, 1, MakeElement(g, 0.25 + 1e-4 * (i % 7), 1, i))
            .ok());
  }

  for (MergedListId list : {0u, 1u}) {
    for (UserId user : {kAlice, kBob}) {
      // Reference: the accessible subsequence by brute-force ACL scan.
      std::vector<EncryptedPostingElement> accessible;
      {
        // Single-threaded test: quiescent once the inserts above returned.
        QuiescenceLock quiesced(server.quiescence());
        for (const auto& e : (*server.GetList(list))->elements()) {
          if (server.acl().IsMember(user, e.group)) accessible.push_back(e);
        }
      }
      const size_t n = accessible.size();
      std::vector<size_t> offsets = {0, 1, 999, n - 31, n - 1, n, n + 5};
      std::vector<size_t> counts = {0, 1, 30, 1000,
                                    std::numeric_limits<size_t>::max()};
      if (list == 0) {
        offsets.clear();
        for (size_t i = 0; i <= n + 2; ++i) offsets.push_back(i);
        counts = offsets;
      }
      for (size_t offset : offsets) {
        for (size_t count : counts) {
          auto fetched = server.Fetch(user, list, offset, count);
          ASSERT_TRUE(fetched.ok());
          size_t begin = std::min(offset, n);
          size_t end = begin + std::min(count, n - begin);
          ASSERT_EQ(fetched->elements.size(), end - begin)
              << "list " << list << " user " << user << " offset " << offset
              << " count " << count;
          size_t wire_bytes = 0;
          for (size_t i = 0; i < fetched->elements.size(); ++i) {
            const EncryptedPostingElement& want = accessible[begin + i];
            EXPECT_EQ(fetched->elements[i].handle, want.handle);
            EXPECT_EQ(fetched->elements[i].sealed, want.sealed);
            wire_bytes += want.ServedWireSize();
          }
          EXPECT_EQ(fetched->wire_bytes, wire_bytes);
          EXPECT_EQ(fetched->exhausted, end == n)
              << "list " << list << " user " << user << " offset " << offset
              << " count " << count;
        }
      }
    }
  }
}

TEST_F(IndexServerTest, GroupCountsTrackInsertAndDelete) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  auto h1 = server.Insert(kAlice, 0, MakeElement(1, 0.9));
  auto h2 = server.Insert(kAlice, 0, MakeElement(2, 0.8));
  auto h3 = server.Insert(kAlice, 0, MakeElement(1, 0.7));
  ASSERT_TRUE(h1.ok() && h2.ok() && h3.ok());
  // Single-threaded test: quiescent once the inserts above returned.
  QuiescenceLock quiesced(server.quiescence());
  auto list = server.GetList(0);
  ASSERT_TRUE(list.ok());
  using Counts = std::map<crypto::GroupId, size_t>;
  EXPECT_EQ((*list)->group_counts(), (Counts{{1, 2}, {2, 1}}));

  ASSERT_TRUE(server.Delete(kAlice, 0, *h2).ok());
  // Emptied groups drop out.
  EXPECT_EQ((*list)->group_counts(), (Counts{{1, 2}}));
  ASSERT_TRUE(server.Delete(kAlice, 0, *h1).ok());
  ASSERT_TRUE(server.Delete(kAlice, 0, *h3).ok());
  EXPECT_TRUE((*list)->group_counts().empty());
}

TEST_F(IndexServerTest, StatsAccumulate) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.5)).ok());
  ASSERT_TRUE(server.Fetch(kAlice, 0, 0, 10).ok());
  EXPECT_EQ(server.stats().insert_requests, 1u);
  EXPECT_EQ(server.stats().fetch_requests, 1u);
  EXPECT_EQ(server.stats().elements_served, 1u);
  EXPECT_GT(server.stats().bytes_served, 0u);
  // Consumers measure a window as the difference of two snapshots.
  ServerStats before = server.stats();
  ASSERT_TRUE(server.Fetch(kAlice, 0, 0, 10).ok());
  ServerStats window = server.stats() - before;
  EXPECT_EQ(window.fetch_requests, 1u);
  EXPECT_EQ(window.elements_served, 1u);
  EXPECT_EQ(window.insert_requests, 0u);
}

TEST_F(IndexServerTest, StatsCountDeletesAndDenials) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  auto mine = server.Insert(kBob, 0, MakeElement(1, 0.9));
  auto foreign = server.Insert(kAlice, 0, MakeElement(2, 0.5));
  ASSERT_TRUE(mine.ok() && foreign.ok());
  // A denied insert still counts as a request (offered load).
  ASSERT_TRUE(
      server.Insert(kBob, 0, MakeElement(2, 0.1)).status().IsPermissionDenied());
  EXPECT_EQ(server.stats().insert_requests, 3u);
  EXPECT_EQ(server.stats().insert_denied, 1u);

  ASSERT_TRUE(server.Delete(kBob, 0, *mine).ok());
  ASSERT_TRUE(server.Delete(kBob, 0, *foreign).IsPermissionDenied());
  ASSERT_TRUE(server.Delete(kBob, 0, 424242).IsNotFound());
  ASSERT_TRUE(server.Delete(kBob, 99, 1).IsOutOfRange());
  EXPECT_EQ(server.stats().delete_requests, 4u);
  EXPECT_EQ(server.stats().delete_denied, 1u);
}

TEST_F(IndexServerTest, UnregisteredGroupCountsAsDenied) {
  // Group 2 exists in the key store but was never registered on this
  // server: CheckAccess fails with NotFound, which the ACL-rejection
  // counters must still include.
  IndexServer server(1, Placement::kTrsSorted, 1);
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  ASSERT_TRUE(server.acl().AddGroup(1).ok());
  ASSERT_TRUE(server.acl().GrantMembership(kAlice, 1).ok());
  EXPECT_TRUE(
      server.Insert(kAlice, 0, MakeElement(2, 0.5)).status().IsNotFound());
  EXPECT_EQ(server.stats().insert_requests, 1u);
  EXPECT_EQ(server.stats().insert_denied, 1u);
}

TEST_F(IndexServerTest, HandleSpaceAssignsResidueClass) {
  // Shard-style handle space: stride 4, offset 3.
  IndexServer server(2, Placement::kTrsSorted, 1, HandleSpace{4, 3});
  // Single-threaded test: the server is trivially quiescent throughout.
  QuiescenceLock quiesced(server.quiescence());
  ASSERT_TRUE(server.acl().AddGroup(1).ok());
  ASSERT_TRUE(server.acl().GrantMembership(kAlice, 1).ok());
  auto h1 = server.Insert(kAlice, 0, MakeElement(1, 0.9));
  auto h2 = server.Insert(kAlice, 1, MakeElement(1, 0.8));
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(*h1 % 4, 3u);
  EXPECT_EQ(*h2 % 4, 3u);
  EXPECT_EQ(*h2, *h1 + 4);
  EXPECT_TRUE(server.Delete(kAlice, 0, *h1).ok());

  // Restore keeps the sequence ahead inside the residue class.
  std::vector<EncryptedPostingElement> restored;
  EncryptedPostingElement e = MakeElement(1, 0.7);
  e.handle = 3 + 4 * 50;
  restored.push_back(e);
  ASSERT_TRUE(server.RestoreElements(0, std::move(restored)).ok());
  auto h3 = server.Insert(kAlice, 0, MakeElement(1, 0.6));
  ASSERT_TRUE(h3.ok());
  EXPECT_GT(*h3, 3u + 4u * 50u);
  EXPECT_EQ(*h3 % 4, 3u);
}

TEST_F(IndexServerTest, TotalWireSizeSumsLists) {
  auto server_holder = MakeServer();
  IndexServer& server = *server_holder;
  EXPECT_EQ(server.TotalWireSize(), 0u);
  ASSERT_TRUE(server.Insert(kAlice, 0, MakeElement(1, 0.5)).ok());
  ASSERT_TRUE(server.Insert(kAlice, 1, MakeElement(2, 0.5)).ok());
  EXPECT_GT(server.TotalWireSize(), 0u);
  EXPECT_EQ(server.TotalElements(), 2u);
}

}  // namespace
}  // namespace zr::zerber
