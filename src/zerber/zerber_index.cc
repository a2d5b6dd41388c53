#include "zerber/zerber_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/slow_op_log.h"

namespace zr::zerber {

namespace {

/// Records the enclosing scope's wall time into a latency histogram, whose
/// exact sum is the matching ServerStats *_latency_ns field. The same
/// measurement also feeds the tracing span (when a trace is active) and the
/// slow-op log (when enabled); both record only numeric ids (list, handle),
/// never terms.
class OpTimer {
 public:
  OpTimer(obs::Histogram* histogram, uint64_t list, uint64_t handle = 0)
      : histogram_(histogram),
        list_(list),
        handle_(handle),
        start_(std::chrono::steady_clock::now()) {}

  void set_handle(uint64_t handle) { handle_ = handle; }

  ~OpTimer() {
    uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    histogram_->Record(elapsed);
    obs::RecordSpan(obs::Stage::kIndexServe, elapsed, list_);
    obs::SlowOpLog::Global().MaybeRecord(
        {obs::Stage::kIndexServe, list_, handle_, elapsed, /*trace_id=*/0});
  }

 private:
  obs::Histogram* histogram_;
  uint64_t list_;
  uint64_t handle_;
  std::chrono::steady_clock::time_point start_;
};

/// The error a NaN sort key earns at a way into a list.
Status NanKey(StatusCode code, MergedListId list) {
  return Status(code, "NaN TRS for merged list " + std::to_string(list));
}

}  // namespace

IndexServer::IndexServer(size_t num_lists, Placement placement, uint64_t seed,
                         HandleSpace handles)
    : lists_(num_lists),
      placement_(placement),
      handles_(handles),
      metric_labels_(obs::NewInstanceLabel() + ",shard=\"" +
                     std::to_string(handles.offset) + "\"") {
  stripe_rngs_.reserve(kLockStripes);
  for (size_t i = 0; i < kLockStripes; ++i) {
    stripe_rngs_.emplace_back(seed + 0x9E3779B97F4A7C15ull * i);
  }
  metrics_collector_ = obs::Registry::Global().RegisterCollector(
      [this](obs::Scrape* out) {
        out->AddCounters("zr_server_", metric_labels_, stats());
        out->AddHistogram("zr_index_fetch_latency_ns", metric_labels_,
                          fetch_latency_);
        out->AddHistogram("zr_index_insert_latency_ns", metric_labels_,
                          insert_latency_);
        out->AddHistogram("zr_index_delete_latency_ns", metric_labels_,
                          delete_latency_);
      });
}

uint64_t IndexServer::AssignHandle() {
  uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  return handles_.offset + seq * handles_.stride;
}

void IndexServer::NoteRestoredHandle(uint64_t handle) {
  // Keep the sequence counter ahead of restored handles so post-restore
  // inserts never collide (handles in this server's residue class map back
  // to their sequence number; foreign residues round up conservatively).
  uint64_t past_offset = handle >= handles_.offset ? handle - handles_.offset
                                                   : 0;
  uint64_t min_next = past_offset / handles_.stride + 1;
  uint64_t seen = next_seq_.load(std::memory_order_relaxed);
  while (seen < min_next &&
         !next_seq_.compare_exchange_weak(seen, min_next,
                                          std::memory_order_relaxed)) {
  }
}

void IndexServer::Place(MergedListId list, EncryptedPostingElement element) {
  size_t stripe = StripeOf(list);
  WriterMutexLock lock(stripe_locks_[stripe]);
  if (placement_ == Placement::kRandomPlacement) {
    element.trs = stripe_rngs_[stripe].NextDouble();
  }
  lists_[list].Insert(std::move(element));
}

Status IndexServer::RestoreElements(
    MergedListId list, std::vector<EncryptedPostingElement> elements) {
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  for (const auto& element : elements) {
    if (std::isnan(element.trs)) {
      return NanKey(StatusCode::kCorruption, list);
    }
  }
  WriterMutexLock lock(stripe_locks_[StripeOf(list)]);
  for (auto& element : elements) {
    NoteRestoredHandle(element.handle);
    lists_[list].Insert(std::move(element));
  }
  return Status::OK();
}

Status IndexServer::ReplayInsert(MergedListId list,
                                 EncryptedPostingElement element) {
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  if (std::isnan(element.trs)) return NanKey(StatusCode::kCorruption, list);
  NoteRestoredHandle(element.handle);
  Place(list, std::move(element));
  return Status::OK();
}

Status IndexServer::ReplayDelete(MergedListId list, uint64_t handle) {
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  WriterMutexLock lock(stripe_locks_[StripeOf(list)]);
  if (!lists_[list].EraseByHandle(handle)) {
    return Status::NotFound("no element with handle " +
                            std::to_string(handle) + " to replay-delete");
  }
  return Status::OK();
}

StatusOr<uint64_t> IndexServer::Insert(UserId user, MergedListId list,
                                       EncryptedPostingElement element) {
  counters_.Add<&ServerStats::insert_requests>();
  OpTimer timer(&insert_latency_, list);
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  if (std::isnan(element.trs)) {
    return NanKey(StatusCode::kInvalidArgument, list);
  }
  Status access = acl_.CheckAccess(user, element.group);
  if (!access.ok()) {
    // Any CheckAccess failure is an ACL rejection (PermissionDenied for
    // non-members, NotFound for an unregistered group).
    counters_.Add<&ServerStats::insert_denied>();
    return access;
  }
  element.handle = AssignHandle();
  uint64_t handle = element.handle;
  timer.set_handle(handle);
  Place(list, std::move(element));
  return handle;
}

Status IndexServer::Delete(UserId user, MergedListId list, uint64_t handle) {
  counters_.Add<&ServerStats::delete_requests>();
  OpTimer timer(&delete_latency_, list, handle);
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  WriterMutexLock lock(stripe_locks_[StripeOf(list)]);
  // Single scan: locate once, check the ACL on the element in place, then
  // erase by position (the stripe writer lock pins the index).
  size_t index = lists_[list].IndexOfHandle(handle);
  if (index == MergedList::kNpos) {
    return Status::NotFound("no element with handle " +
                            std::to_string(handle));
  }
  Status access = acl_.CheckAccess(user, lists_[list].elements()[index].group);
  if (!access.ok()) {
    counters_.Add<&ServerStats::delete_denied>();
    return access;
  }
  lists_[list].EraseAt(index);
  return Status::OK();
}

StatusOr<FetchResult> IndexServer::Fetch(UserId user, MergedListId list,
                                         size_t offset, size_t count) {
  counters_.Add<&ServerStats::fetch_requests>();
  OpTimer timer(&fetch_latency_, list);
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  FetchResult result;
  {
    ReaderMutexLock lock(stripe_locks_[StripeOf(list)]);
    const MergedList& merged = lists_[list];

    // Size of the accessible subsequence, from per-group bookkeeping —
    // O(groups present in the list), independent of list length.
    size_t accessible_total = 0;
    for (const auto& [group, group_count] : merged.group_counts()) {
      if (acl_.IsMember(user, group)) accessible_total += group_count;
    }

    const auto& elements = merged.elements();
    if (accessible_total == elements.size()) {
      // The user may read every element: the window starts at `offset`.
      size_t begin = std::min(offset, elements.size());
      size_t end = begin + std::min(count, elements.size() - begin);
      result.elements.assign(elements.begin() + begin, elements.begin() + end);
      for (const auto& e : result.elements) {
        result.wire_bytes += e.ServedWireSize();
      }
    } else {
      size_t accessible_seen = 0;
      for (size_t i = 0;
           i < elements.size() && result.elements.size() < count; ++i) {
        const auto& e = elements[i];
        if (!acl_.IsMember(user, e.group)) continue;
        if (accessible_seen++ < offset) continue;
        result.elements.push_back(e);
        result.wire_bytes += e.ServedWireSize();
      }
    }
    // Exhausted iff the window [offset, offset+count) covers the tail of
    // the accessible subsequence (overflow-safe form of
    // offset + count >= accessible_total).
    result.exhausted =
        offset >= accessible_total || count >= accessible_total - offset;
  }
  counters_.Add<&ServerStats::elements_served>(result.elements.size());
  counters_.Add<&ServerStats::bytes_served>(result.wire_bytes);
  return result;
}

uint64_t IndexServer::TotalElements() const {
  uint64_t total = 0;
  // One lock acquisition per stripe, not per list.
  for (size_t stripe = 0; stripe < kLockStripes && stripe < lists_.size();
       ++stripe) {
    ReaderMutexLock lock(stripe_locks_[stripe]);
    for (size_t i = stripe; i < lists_.size(); i += kLockStripes) {
      total += lists_[i].size();
    }
  }
  return total;
}

uint64_t IndexServer::TotalWireSize() const {
  uint64_t total = 0;
  for (size_t stripe = 0; stripe < kLockStripes && stripe < lists_.size();
       ++stripe) {
    ReaderMutexLock lock(stripe_locks_[stripe]);
    for (size_t i = stripe; i < lists_.size(); i += kLockStripes) {
      total += lists_[i].TotalWireSize();
    }
  }
  return total;
}

StatusOr<const MergedList*> IndexServer::GetList(MergedListId list) const {
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  return &lists_[list];
}

ServerStats IndexServer::stats() const {
  ServerStats snapshot = counters_.Snapshot();
  snapshot.fetch_latency_ns = fetch_latency_.SumNs();
  snapshot.insert_latency_ns = insert_latency_.SumNs();
  snapshot.delete_latency_ns = delete_latency_.SumNs();
  return snapshot;
}

}  // namespace zr::zerber
