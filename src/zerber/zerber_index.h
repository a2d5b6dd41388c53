// The untrusted index server.
//
// Holds merged posting lists of sealed elements. Enforces authentication +
// group ACLs (paper Sections 4.1, 5): it verifies that inserting users are
// members of the element's group and filters query responses down to groups
// the querying user may read. It never sees terms, documents, or raw scores
// — only group tags, TRS values and ciphertext.
//
// Placement: every list keeps its elements in descending sort-key order
// (zerber/merged_list.h). The server's Placement says where that key comes
// from: the element's TRS (Zerber+R, so top-k is a prefix of the list), or
// a uniform draw the server makes per element (plain Zerber, so positions
// are uniformly random and reveal nothing). A NaN key is rejected at every
// way into a list, since every lookup trusts the order.
//
// Thread-safety contract (changed when sharded serving landed): the request
// path — Insert, Delete, Fetch — and the aggregate accessors TotalElements /
// TotalWireSize / stats are safe to call from any number of threads
// concurrently. Internally each merged list is guarded by one of a fixed
// set of striped reader-writer locks (fetches on a list proceed in
// parallel; writes to a list exclude each other), handles come from an
// atomic counter, and counters and latency histograms are atomic. The
// *operator / offline* surface is exempt: ACL mutation (acl()), GetList and
// RestoreElements must only run while no request-path call is in flight
// (provisioning, snapshot save/restore and adversary inspection all happen
// at quiescence).
//
// Stats counting policy: every arriving request increments its *_requests
// counter whether or not it succeeds — a rejected request still cost the
// server an authentication + lookup, and the evaluation harness wants
// offered load, not goodput. The *_denied counters additionally count the
// subset the ACL rejected (non-member of a known group, or a group that was
// never registered), so accepted = requests - denied - non-ACL failures
// (malformed list ids, for Insert a NaN TRS, and for Delete an unknown
// handle).

#ifndef ZERBERR_ZERBER_ZERBER_INDEX_H_
#define ZERBERR_ZERBER_ZERBER_INDEX_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/counter_set.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"
#include "zerber/acl.h"
#include "zerber/merge_planner.h"
#include "zerber/merged_list.h"
#include "zerber/posting_element.h"
#include "zerber/server_stats.h"

namespace zr::zerber {

/// Where an index server's sort keys come from (paper Sections 3.1 and 5).
enum class Placement {
  kRandomPlacement,  ///< plain Zerber ([22]): a uniform draw per element
  kTrsSorted,        ///< Zerber+R: the element's TRS
};

/// Response of a range fetch.
struct FetchResult {
  /// Accessible elements in list order, at most `count` of them.
  std::vector<EncryptedPostingElement> elements;

  /// True when the requested window reaches the end of the accessible
  /// subsequence for this user: offset + count >= (elements the user may
  /// see). Edge cases follow from that formula: count == 0 fetches nothing
  /// and is exhausted iff offset is at or past the end; an offset past the
  /// end returns no elements and exhausted == true; a user with no
  /// accessible groups sees an empty, exhausted list.
  bool exhausted = false;

  /// Summed served wire sizes of `elements` (ServedWireSize: the bytes a
  /// query response spends on them, without the TRS), which feed
  /// ServerStats::bytes_served. Client-visible transfer accounting instead
  /// comes from the transport layer, which measures whole response
  /// messages: their envelopes and element counts on top of these bytes.
  /// Always 0 when `elements` is empty.
  size_t wire_bytes = 0;
};

/// The residue class a server assigns handles from: handle = offset +
/// seq * stride, seq = 1, 2, ... Sharded deployments give shard s of N the
/// space {stride = N, offset = s}, so handle % N recovers the owning shard
/// and handles stay unique across shards without coordination. The default
/// {1, 0} yields the classic dense sequence 1, 2, 3, ...
struct HandleSpace {
  uint64_t stride = 1;
  uint64_t offset = 0;
};

/// The index server: one shard's worth of merged lists (an in-memory
/// pipeline's default is one shard of one). Request path is thread-safe;
/// see the contract at the top of this header.
class IndexServer {
 public:
  /// Creates a server with `num_lists` empty merged lists whose keys come
  /// from `placement`. `seed` drives random placement's draws; `handles`
  /// selects the handle residue class (sharding).
  IndexServer(size_t num_lists, Placement placement, uint64_t seed = 1,
              HandleSpace handles = {});

  /// The external-quiescence capability of this server. Quiescent-only
  /// APIs below are ZR_REQUIRES(quiescence()): under clang, calling them
  /// without holding a QuiescenceLock on this capability fails to compile.
  /// Acquiring it is the caller's statement — checked by protocol, not at
  /// runtime — that no request-path call is in flight for the guard's
  /// lifetime (provisioning before serving, recovery replay, snapshot
  /// save/restore, post-shutdown inspection).
  Quiescence& quiescence() const ZR_RETURN_CAPABILITY(quiescence_) {
    return quiescence_;
  }

  /// Access-control registry (server operator API). Requires quiescence —
  /// provision groups/memberships before serving traffic, and inspect the
  /// registry only once traffic has drained.
  AccessControl& acl() ZR_REQUIRES(quiescence_) { return acl_; }
  const AccessControl& acl() const ZR_REQUIRES(quiescence_) { return acl_; }

  /// Inserts a sealed element into a merged list on behalf of `user`.
  /// PermissionDenied unless the user is a member of the element's group;
  /// OutOfRange for an invalid list id; InvalidArgument for a NaN TRS.
  /// Assigns the element a fresh server handle (returned for later
  /// deletion); under random placement the stored key is a fresh draw.
  StatusOr<uint64_t> Insert(UserId user, MergedListId list,
                            EncryptedPostingElement element);

  /// Deletes the element with the given handle from a list on behalf of
  /// `user`. The server never learns contents — only the handle and the
  /// (visible) group tag, whose membership it checks. NotFound if no such
  /// handle; PermissionDenied for foreign groups.
  Status Delete(UserId user, MergedListId list, uint64_t handle);

  /// Returns up to `count` accessible elements of `list`, skipping the first
  /// `offset` accessible ones. Offset/count address the *accessible*
  /// subsequence for this user, so inaccessible groups neither appear nor
  /// shift positions. OutOfRange for an invalid list id. Exhaustion is
  /// answered from the per-group element counts each list maintains
  /// (O(groups present), not O(remaining list)).
  StatusOr<FetchResult> Fetch(UserId user, MergedListId list, size_t offset,
                              size_t count);

  /// Number of merged lists.
  size_t NumLists() const { return lists_.size(); }

  /// Total stored elements across all lists.
  uint64_t TotalElements() const;

  /// Total wire size of all stored elements (Section 6.3 storage accounting).
  uint64_t TotalWireSize() const;

  /// List inspection (tests / adversary simulation — a compromised server
  /// can read everything it stores; paper Section 6.2). The returned pointer
  /// is only stable at quiescence: concurrent writers may reallocate the
  /// list under it.
  StatusOr<const MergedList*> GetList(MergedListId list) const
      ZR_REQUIRES(quiescence_);

  /// Where this server's sort keys come from.
  Placement placement() const { return placement_; }

  /// The handle residue class this server assigns from.
  const HandleSpace& handle_space() const { return handles_; }

  /// Inserts stored elements into a list with their stored keys, bypassing
  /// ACL checks and stats. Only for snapshot restore (zerber/persistence.h):
  /// a list inserted in its stored order keeps that order. OutOfRange on a
  /// bad list id; Corruption, before any element is inserted, if one holds
  /// a NaN key. Requires quiescence.
  Status RestoreElements(MergedListId list,
                         std::vector<EncryptedPostingElement> elements)
      ZR_REQUIRES(quiescence_);

  /// Re-applies a logged insert during WAL replay (store/wal.h): inserts
  /// the element as Insert does but keeps its logged handle and skips ACL
  /// checks and stats (the original insert already passed both). For
  /// kTrsSorted the replayed position is exactly the original one; for
  /// kRandomPlacement a fresh key is drawn — contents and handles are
  /// replay-stable, the privacy shuffle is not (and need not be).
  /// OutOfRange on a bad list id; Corruption for a NaN TRS (Insert never
  /// accepts one). Requires quiescence.
  Status ReplayInsert(MergedListId list, EncryptedPostingElement element)
      ZR_REQUIRES(quiescence_);

  /// Re-applies a logged delete during WAL replay: removes the element with
  /// the given handle, skipping ACL checks and stats. NotFound if no such
  /// handle (a snapshot/WAL pairing bug — replay never legitimately misses).
  /// Requires quiescence.
  Status ReplayDelete(MergedListId list, uint64_t handle)
      ZR_REQUIRES(quiescence_);

  /// Snapshot of the counters (consistent enough for the harness: each
  /// counter is read atomically, the set is not a single atomic cut). The
  /// *_latency_ns fields are the sums of the latency histograms.
  ServerStats stats() const;

  /// This server's scrape labels, `id="<n>",shard="<handle offset>"`:
  /// unique among the live servers of the process.
  const std::string& metric_labels() const { return metric_labels_; }

 private:
  /// Lists are guarded by kLockStripes reader-writer locks; list i maps to
  /// stripe i % kLockStripes. Striping bounds lock memory independently of
  /// the (possibly huge) list count while keeping unrelated lists mostly
  /// uncontended.
  static constexpr size_t kLockStripes = 16;

  size_t StripeOf(MergedListId list) const {
    return static_cast<size_t>(list) % kLockStripes;
  }

  /// Next handle in this server's residue class.
  uint64_t AssignHandle();

  /// Bumps next_seq_ past a restored/replayed handle so post-recovery
  /// inserts never collide with it.
  void NoteRestoredHandle(uint64_t handle);

  /// Inserts `element` into `list` (a valid id) under its stripe's writer
  /// lock, first replacing its key with a draw from the stripe's Rng under
  /// random placement.
  void Place(MergedListId list, EncryptedPostingElement element);

  /// lists_[i] and stripe_rngs_[StripeOf(i)] are guarded by
  /// stripe_locks_[StripeOf(i)] — an indexed relation ZR_GUARDED_BY cannot
  /// express (it names one capability, not a family), so the discipline is
  /// enforced here by construction: every access in zerber_index.cc goes
  /// through a Writer/ReaderMutexLock on the owning stripe, and TSan covers
  /// the residue.
  std::vector<MergedList> lists_;
  AccessControl acl_;
  Placement placement_;
  HandleSpace handles_;
  /// One Rng per stripe (random placement draws keys while holding that
  /// stripe's writer lock).
  std::vector<Rng> stripe_rngs_;
  mutable std::array<SharedMutex, kLockStripes> stripe_locks_;
  /// The request counters. Its three *_latency_ns cells stay zero: those
  /// fields are the histograms' sums, so each latency is stored once.
  obs::AtomicCounters<ServerStats> counters_;
  obs::Histogram fetch_latency_;
  obs::Histogram insert_latency_;
  obs::Histogram delete_latency_;
  std::atomic<uint64_t> next_seq_{1};
  /// No runtime state; see quiescence().
  mutable Quiescence quiescence_;
  const std::string metric_labels_;
  /// Publishes the counters and histograms through the process metrics
  /// registry (obs/registry.h). LAST member: destroyed first, and
  /// RemoveCollector blocks out in-flight scrapes, so a scrape can never
  /// observe a partially-destroyed server.
  obs::CollectorHandle metrics_collector_;
};

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_ZERBER_INDEX_H_
