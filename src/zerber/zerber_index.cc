#include "zerber/zerber_index.h"

#include <chrono>

#include "obs/slow_op_log.h"

namespace zr::zerber {

namespace {

/// Accumulates the enclosing scope's wall time into an atomic nanosecond
/// counter (the per-op latency sums of ServerStats) AND — with the same
/// measured value, so the two stay equal to the nanosecond — into the
/// registry latency histogram, whose side-tracked SumNs therefore carries
/// the legacy sum losslessly. The same measurement also feeds the tracing
/// span (when a trace is active) and the slow-op log (when enabled); both
/// record only numeric ids (list, handle), never terms.
class OpTimer {
 public:
  OpTimer(std::atomic<uint64_t>* sink, obs::Histogram* histogram,
          uint64_t list, uint64_t handle = 0)
      : sink_(sink),
        histogram_(histogram),
        list_(list),
        handle_(handle),
        start_(std::chrono::steady_clock::now()) {}

  void set_handle(uint64_t handle) { handle_ = handle; }

  ~OpTimer() {
    uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    sink_->fetch_add(elapsed, std::memory_order_relaxed);
    histogram_->Record(elapsed);
    obs::RecordSpan(obs::Stage::kIndexServe, elapsed, list_);
    obs::SlowOpLog::Global().MaybeRecord(
        {obs::Stage::kIndexServe, list_, handle_, elapsed, /*trace_id=*/0});
  }

 private:
  std::atomic<uint64_t>* sink_;
  obs::Histogram* histogram_;
  uint64_t list_;
  uint64_t handle_;
  std::chrono::steady_clock::time_point start_;
};

// Registered once, shared by every IndexServer in the process (each
// shard-server process hosts exactly one, so scrapes stay per-shard).
obs::Histogram* FetchLatencyHistogram() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("zr_index_fetch_latency_ns");
  return h;
}

obs::Histogram* InsertLatencyHistogram() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("zr_index_insert_latency_ns");
  return h;
}

obs::Histogram* DeleteLatencyHistogram() {
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("zr_index_delete_latency_ns");
  return h;
}

}  // namespace

IndexServer::IndexServer(size_t num_lists, Placement placement, uint64_t seed,
                         HandleSpace handles)
    : placement_(placement), handles_(handles) {
  lists_.reserve(num_lists);
  for (size_t i = 0; i < num_lists; ++i) lists_.emplace_back(placement);
  stripe_rngs_.reserve(kLockStripes);
  for (size_t i = 0; i < kLockStripes; ++i) {
    stripe_rngs_.emplace_back(seed + 0x9E3779B97F4A7C15ull * i);
  }
  // ServerStats through the one metrics interface: in-process deployments
  // may register several servers (the shard label keeps them apart;
  // readers sum duplicate series), shard-server processes exactly one.
  metrics_collector_ = obs::Registry::Global().RegisterCollector(
      [this](std::vector<obs::Sample>* out) {
        std::string labels =
            "shard=\"" + std::to_string(handles_.offset) + "\"";
        ServerStats s = stats();
        out->push_back(
            {"zr_server_fetch_requests_total", labels, s.fetch_requests});
        out->push_back(
            {"zr_server_insert_requests_total", labels, s.insert_requests});
        out->push_back(
            {"zr_server_insert_denied_total", labels, s.insert_denied});
        out->push_back(
            {"zr_server_delete_requests_total", labels, s.delete_requests});
        out->push_back(
            {"zr_server_delete_denied_total", labels, s.delete_denied});
        out->push_back(
            {"zr_server_elements_served_total", labels, s.elements_served});
        out->push_back(
            {"zr_server_bytes_served_total", labels, s.bytes_served});
        out->push_back(
            {"zr_server_fetch_latency_ns_total", labels, s.fetch_latency_ns});
        out->push_back(
            {"zr_server_insert_latency_ns_total", labels, s.insert_latency_ns});
        out->push_back(
            {"zr_server_delete_latency_ns_total", labels, s.delete_latency_ns});
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

Status IndexServer::RestoreElements(
    MergedListId list, std::vector<EncryptedPostingElement> elements) {
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  WriterMutexLock lock(stripe_locks_[StripeOf(list)]);
  for (auto& element : elements) {
    NoteRestoredHandle(element.handle);
    lists_[list].AppendRestored(std::move(element));
  }
  return Status::OK();
}

Status IndexServer::ReplayInsert(MergedListId list,
                                 EncryptedPostingElement element) {
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  NoteRestoredHandle(element.handle);
  size_t stripe = StripeOf(list);
  WriterMutexLock lock(stripe_locks_[stripe]);
  lists_[list].Insert(std::move(element), &stripe_rngs_[stripe]);
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
  stats_.insert_requests.fetch_add(1, std::memory_order_relaxed);
  OpTimer timer(&stats_.insert_latency_ns, InsertLatencyHistogram(), list);
  if (list >= lists_.size()) {
    return Status::OutOfRange("merged list " + std::to_string(list) +
                              " does not exist");
  }
  Status access = acl_.CheckAccess(user, element.group);
  if (!access.ok()) {
    // Any CheckAccess failure is an ACL rejection (PermissionDenied for
    // non-members, NotFound for an unregistered group).
    stats_.insert_denied.fetch_add(1, std::memory_order_relaxed);
    return access;
  }
  element.handle = AssignHandle();
  uint64_t handle = element.handle;
  timer.set_handle(handle);
  size_t stripe = StripeOf(list);
  WriterMutexLock lock(stripe_locks_[stripe]);
  lists_[list].Insert(std::move(element), &stripe_rngs_[stripe]);
  return handle;
}

Status IndexServer::Delete(UserId user, MergedListId list, uint64_t handle) {
  stats_.delete_requests.fetch_add(1, std::memory_order_relaxed);
  OpTimer timer(&stats_.delete_latency_ns, DeleteLatencyHistogram(), list,
                handle);
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
    stats_.delete_denied.fetch_add(1, std::memory_order_relaxed);
    return access;
  }
  lists_[list].EraseAt(index);
  return Status::OK();
}

StatusOr<FetchResult> IndexServer::Fetch(UserId user, MergedListId list,
                                         size_t offset, size_t count) {
  stats_.fetch_requests.fetch_add(1, std::memory_order_relaxed);
  OpTimer timer(&stats_.fetch_latency_ns, FetchLatencyHistogram(), list);
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
    size_t accessible_seen = 0;
    for (size_t i = 0;
         i < elements.size() && result.elements.size() < count; ++i) {
      const auto& e = elements[i];
      if (!acl_.IsMember(user, e.group)) continue;
      if (accessible_seen++ < offset) continue;
      result.elements.push_back(e);
      result.wire_bytes += e.ServedWireSize();
    }
    // Exhausted iff the window [offset, offset+count) covers the tail of
    // the accessible subsequence (overflow-safe form of
    // offset + count >= accessible_total).
    result.exhausted =
        offset >= accessible_total || count >= accessible_total - offset;
  }
  stats_.elements_served.fetch_add(result.elements.size(),
                                   std::memory_order_relaxed);
  stats_.bytes_served.fetch_add(result.wire_bytes, std::memory_order_relaxed);
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
  ServerStats snapshot;
  snapshot.fetch_requests = stats_.fetch_requests.load(std::memory_order_relaxed);
  snapshot.insert_requests =
      stats_.insert_requests.load(std::memory_order_relaxed);
  snapshot.insert_denied = stats_.insert_denied.load(std::memory_order_relaxed);
  snapshot.delete_requests =
      stats_.delete_requests.load(std::memory_order_relaxed);
  snapshot.delete_denied = stats_.delete_denied.load(std::memory_order_relaxed);
  snapshot.elements_served =
      stats_.elements_served.load(std::memory_order_relaxed);
  snapshot.bytes_served = stats_.bytes_served.load(std::memory_order_relaxed);
  snapshot.fetch_latency_ns =
      stats_.fetch_latency_ns.load(std::memory_order_relaxed);
  snapshot.insert_latency_ns =
      stats_.insert_latency_ns.load(std::memory_order_relaxed);
  snapshot.delete_latency_ns =
      stats_.delete_latency_ns.load(std::memory_order_relaxed);
  return snapshot;
}

void IndexServer::ResetStats() {
  stats_.fetch_requests.store(0, std::memory_order_relaxed);
  stats_.insert_requests.store(0, std::memory_order_relaxed);
  stats_.insert_denied.store(0, std::memory_order_relaxed);
  stats_.delete_requests.store(0, std::memory_order_relaxed);
  stats_.delete_denied.store(0, std::memory_order_relaxed);
  stats_.elements_served.store(0, std::memory_order_relaxed);
  stats_.bytes_served.store(0, std::memory_order_relaxed);
  stats_.fetch_latency_ns.store(0, std::memory_order_relaxed);
  stats_.insert_latency_ns.store(0, std::memory_order_relaxed);
  stats_.delete_latency_ns.store(0, std::memory_order_relaxed);
}

}  // namespace zr::zerber
