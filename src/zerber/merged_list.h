// Server-side merged posting list (paper Sections 3.1 and 5).
//
// One container with one order: elements in descending `trs`, equal keys in
// insertion order. Under Zerber+R the key is the element's transformed
// relevance score, so the server answers top-k with a prefix of the list.
// Under the plain Zerber baseline the index server (zerber_index.h) first
// replaces the key with a uniform draw, so positions reveal nothing. The
// list never knows which of the two it holds.

#ifndef ZERBERR_ZERBER_MERGED_LIST_H_
#define ZERBERR_ZERBER_MERGED_LIST_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "zerber/posting_element.h"

namespace zr::zerber {

/// A merged posting list holding sealed elements of several terms, kept in
/// descending `trs` order with ties in insertion order. Insert is the only
/// way in, and a NaN key would break the order every lookup trusts, so the
/// callers reject one first (IndexServer does at each of its ways in).
///
/// Handle lookups keep a handle -> key map. Mid-list inserts and erases
/// shift the suffix, so exact positions would cost O(suffix) hash rewrites
/// per mutation, while an element's key never moves: a lookup
/// binary-searches the key's tie run and scans it for the handle,
/// O(log n + ties).
///
/// Handles are unique within a list by the server's assignment contract;
/// lookups for a duplicated handle are unspecified (last write wins)
/// though element storage itself stays consistent.
class MergedList {
 public:
  /// Inserts `element` after every element whose key is at least its own:
  /// O(log n) to find the slot, O(suffix) to move the tail. Inserting a
  /// sorted list in its own order appends each element, so a snapshot
  /// restores to exactly its stored order. The key must not be NaN.
  void Insert(EncryptedPostingElement element);

  /// "Not found" position of IndexOfHandle.
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  /// Position of the element with the given handle; kNpos if absent.
  /// O(log n + ties); lets callers inspect-then-erase without a scan.
  size_t IndexOfHandle(uint64_t handle) const;

  /// Removes the element at `index` (must be < size()); the suffix shifts
  /// down.
  void EraseAt(size_t index);

  /// Removes the element with the given handle. False if absent.
  bool EraseByHandle(uint64_t handle);

  /// All elements in list order.
  const std::vector<EncryptedPostingElement>& elements() const {
    return elements_;
  }

  /// Element count per group tag, maintained incrementally on every
  /// insert/erase. Lets the server answer "how many of this list's elements
  /// can user u see?" in O(groups present) instead of O(elements) — the
  /// exhaustion fast path of IndexServer::Fetch.
  const std::map<crypto::GroupId, size_t>& group_counts() const {
    return group_counts_;
  }

  size_t size() const { return elements_.size(); }

  /// Sum of wire sizes of all elements (storage accounting, Section 6.3).
  size_t TotalWireSize() const;

  /// Verifies the list invariants: keys descend, there is one map entry
  /// per element, and IndexOfHandle resolves every element's handle to its
  /// position. O(list log list); tests only.
  bool CheckHandleIndex() const;

 private:
  std::vector<EncryptedPostingElement> elements_;
  std::map<crypto::GroupId, size_t> group_counts_;
  /// handle -> sort key (never needs maintenance on shifts).
  std::unordered_map<uint64_t, double> handle_trs_;
};

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_MERGED_LIST_H_
