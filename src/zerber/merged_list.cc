#include "zerber/merged_list.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace zr::zerber {

namespace {

/// Tie run [first, last) of elements whose TRS equals `trs` in the
/// descending-TRS order. Empty when no element carries that key.
std::pair<size_t, size_t> TrsTieRun(
    const std::vector<EncryptedPostingElement>& elements, double trs) {
  auto first = std::lower_bound(
      elements.begin(), elements.end(), trs,
      [](const EncryptedPostingElement& e, double t) { return e.trs > t; });
  auto last = std::upper_bound(
      first, elements.end(), trs,
      [](double t, const EncryptedPostingElement& e) { return t > e.trs; });
  return {static_cast<size_t>(first - elements.begin()),
          static_cast<size_t>(last - elements.begin())};
}

}  // namespace

void MergedList::Insert(EncryptedPostingElement element) {
  ++group_counts_[element.group];
  handle_trs_[element.handle] = element.trs;
  // Descending TRS; ties keep insertion order (stable upper_bound).
  auto it = std::upper_bound(
      elements_.begin(), elements_.end(), element,
      [](const EncryptedPostingElement& a, const EncryptedPostingElement& b) {
        return a.trs > b.trs;
      });
  elements_.insert(it, std::move(element));
}

size_t MergedList::IndexOfHandle(uint64_t handle) const {
  auto it = handle_trs_.find(handle);
  if (it == handle_trs_.end()) return kNpos;
  auto [first, last] = TrsTieRun(elements_, it->second);
  for (size_t i = first; i < last; ++i) {
    if (elements_[i].handle == handle) return i;
  }
  return kNpos;
}

void MergedList::EraseAt(size_t index) {
  assert(index < elements_.size());
  auto count = group_counts_.find(elements_[index].group);
  if (count != group_counts_.end() && --count->second == 0) {
    group_counts_.erase(count);
  }
  handle_trs_.erase(elements_[index].handle);
  elements_.erase(elements_.begin() + static_cast<long>(index));
}

bool MergedList::EraseByHandle(uint64_t handle) {
  size_t index = IndexOfHandle(handle);
  if (index == kNpos) return false;
  EraseAt(index);
  return true;
}

size_t MergedList::TotalWireSize() const {
  size_t total = 0;
  for (const auto& e : elements_) total += e.WireSize();
  return total;
}

bool MergedList::CheckHandleIndex() const {
  if (handle_trs_.size() != elements_.size()) return false;
  for (size_t i = 0; i < elements_.size(); ++i) {
    if (i > 0 && !(elements_[i - 1].trs >= elements_[i].trs)) return false;
    if (IndexOfHandle(elements_[i].handle) != i) return false;
  }
  return true;
}

}  // namespace zr::zerber
