// MergedList's handle -> key index and its descending key order must stay
// exactly consistent with the element vector across arbitrary
// interleavings of Insert and EraseAt / EraseByHandle — the index is what
// makes delete churn O(log n + ties) instead of an O(list) scan, so a stale
// entry silently deletes the wrong element. Keys are coarse (16 values),
// so tie runs are long and the scan inside them is exercised.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/keys.h"
#include "util/random.h"
#include "zerber/merged_list.h"
#include "zerber/posting_element.h"

namespace zr::zerber {
namespace {

EncryptedPostingElement MakeElement(crypto::KeyStore* keys, uint64_t handle,
                                    double trs, crypto::GroupId group = 1) {
  auto element = SealPostingElement(
      PostingPayload{/*term=*/1, static_cast<text::DocId>(handle), 0.5}, group,
      trs, keys);
  EXPECT_TRUE(element.ok()) << element.status();
  element->handle = handle;
  return std::move(element).value();
}

/// One of 16 keys, so that many elements share each.
double CoarseKey(Rng* rng) {
  return static_cast<double>(rng->Uniform(16)) / 16.0;
}

/// Reference check: the index must agree with a linear scan for every live
/// handle, and report kNpos for a retired one.
void ExpectIndexMatchesScan(const MergedList& list,
                            const std::vector<uint64_t>& live,
                            const std::vector<uint64_t>& dead) {
  ASSERT_TRUE(list.CheckHandleIndex());
  for (uint64_t handle : live) {
    size_t via_index = list.IndexOfHandle(handle);
    ASSERT_NE(via_index, MergedList::kNpos) << "handle " << handle;
    size_t via_scan = MergedList::kNpos;
    for (size_t i = 0; i < list.elements().size(); ++i) {
      if (list.elements()[i].handle == handle) {
        via_scan = i;
        break;
      }
    }
    EXPECT_EQ(via_index, via_scan) << "handle " << handle;
  }
  for (uint64_t handle : dead) {
    EXPECT_EQ(list.IndexOfHandle(handle), MergedList::kNpos);
  }
}

TEST(HandleIndexTest, RandomizedInsertEraseInterleaving) {
  crypto::KeyStore keys("handle-index-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());

  MergedList list;
  Rng rng(20260730);
  uint64_t next_handle = 1;
  std::vector<uint64_t> live;
  std::vector<uint64_t> dead;

  for (int step = 0; step < 2000; ++step) {
    uint64_t dice = rng.Uniform(10);
    if (dice < 6 || live.empty()) {
      uint64_t handle = next_handle++;
      list.Insert(MakeElement(&keys, handle, CoarseKey(&rng)));
      live.push_back(handle);
    } else if (dice < 8) {
      // Erase by handle (the Delete path).
      size_t pick = static_cast<size_t>(rng.Uniform(live.size()));
      uint64_t handle = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      EXPECT_TRUE(list.EraseByHandle(handle));
      dead.push_back(handle);
    } else {
      // Erase by position (the inspect-then-erase path of IndexServer).
      size_t index = static_cast<size_t>(rng.Uniform(list.size()));
      uint64_t handle = list.elements()[index].handle;
      list.EraseAt(index);
      for (size_t i = 0; i < live.size(); ++i) {
        if (live[i] == handle) {
          live.erase(live.begin() + static_cast<long>(i));
          break;
        }
      }
      dead.push_back(handle);
    }

    ASSERT_EQ(list.size(), live.size());
    // Full scan-vs-index comparison is O(n^2); do it periodically and at
    // small sizes, and always verify the cheap structural invariant.
    ASSERT_TRUE(list.CheckHandleIndex()) << "step " << step;
    if (step % 250 == 0 || list.size() < 8) {
      ExpectIndexMatchesScan(list, live, dead);
    }
  }
  ExpectIndexMatchesScan(list, live, dead);

  // Drain to empty through the indexed path.
  while (!live.empty()) {
    EXPECT_TRUE(list.EraseByHandle(live.back()));
    dead.push_back(live.back());
    live.pop_back();
    ASSERT_TRUE(list.CheckHandleIndex());
  }
  EXPECT_EQ(list.size(), 0u);
  ExpectIndexMatchesScan(list, live, dead);
}

// Equal keys keep insertion order, so inserting a list in its own order
// reproduces it exactly (snapshot restore relies on this).
TEST(HandleIndexTest, TiesKeepInsertionOrder) {
  crypto::KeyStore keys("handle-index-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  MergedList list;
  Rng rng(3);
  for (uint64_t h = 1; h <= 64; ++h) {
    list.Insert(MakeElement(&keys, h, CoarseKey(&rng)));
  }
  ASSERT_TRUE(list.CheckHandleIndex());
  for (size_t i = 1; i < list.size(); ++i) {
    const auto& prev = list.elements()[i - 1];
    const auto& next = list.elements()[i];
    if (prev.trs == next.trs) {
      EXPECT_LT(prev.handle, next.handle);
    }
  }
  MergedList copy;
  for (const auto& element : list.elements()) copy.Insert(element);
  ASSERT_EQ(copy.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(copy.elements()[i].handle, list.elements()[i].handle);
  }
}

TEST(HandleIndexTest, EraseMissingHandleLeavesIndexIntact) {
  crypto::KeyStore keys("handle-index-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  MergedList list;
  Rng rng(7);
  for (uint64_t h = 1; h <= 16; ++h) {
    list.Insert(MakeElement(&keys, h, CoarseKey(&rng)));
  }
  EXPECT_FALSE(list.EraseByHandle(999));
  EXPECT_EQ(list.size(), 16u);
  EXPECT_TRUE(list.CheckHandleIndex());
}

}  // namespace
}  // namespace zr::zerber
