// Durable storage engine: WAL + snapshot rotation + crash recovery, one
// engine per shard.
//
// DurableShard is one durable shard, a net::ShardService: it owns shard s
// of N's IndexServer and that shard's epoch-numbered snapshot/WAL pair on
// disk:
//
//   <dir>/snapshot-000007.idx   state as of epoch 7
//   <dir>/wal-000007.log        mutations since epoch 7
//
// DurableIndexService is the in-process deployment: a net::ShardRouter
// (routing, MultiFetch fan-out, ACL broadcast, stats sum) over N >= 1
// DurableShards, shard s in <data_dir>/shard-000s. tools/shard_server.cc
// serves one DurableShard per process behind a net::TcpServer, so an
// in-process N-shard store and an N-process cluster run the same shard
// code, and shard s of either holds the same bytes.
//
// Write path: check the shard's sticky WAL status, apply the mutation to
// the index, append the acked result (element + server handle) to the
// shard's WAL, then ack the client. With group commit (store/wal.h)
// concurrent writers amortize one fsync per batch. Reads (Fetch/MultiFetch)
// pass straight through.
//
// Rotation: when a shard's WAL exceeds `snapshot_threshold_bytes`, the
// shard's background thread snapshots it (atomic + fsynced, see
// store/fs.h), starts WAL epoch e+1, and retires everything older than
// generation e. Generation e — snapshot AND log — is kept: wal-e is
// exactly the delta from snapshot-e to snapshot-(e+1), so if
// snapshot-(e+1) ever fails to validate (bit rot), recovery falls back to
// snapshot-e and replays the wal-e, wal-(e+1) chain losslessly. Writers to
// that shard are gated out during its rotation; other shards and all reads
// continue.
//
// WAL failure semantics (fail-stop): a WAL IO error is sticky. The failed
// mutation is reported as an error (unacked); a failed insert is also
// scrubbed from the live index (a failed delete stays applied). Every
// later mutation of that shard fails fast with the sticky error before it
// touches the index, and the shard refuses to snapshot from then on —
// otherwise an unacked mutation could become durable — so reads continue
// but the durable state stays exactly the acked prefix; restart/recover to
// resume writes.
//
// Recovery (Open): load the newest snapshot that validates, replay its WAL
// tail stopping cleanly at the first torn or corrupt record, then rotate so
// serving starts from a fresh snapshot + empty log. The result is exactly
// the acknowledged prefix of mutations: nothing acked is lost (per the
// chosen sync mode), nothing unacked is resurrected. DurableIndexService
// recovers its shards in parallel.
//
// Crash-consistency argument for the rotation order (snapshot e+1 is
// published before anything is retired): at every instant the directory
// contains a snapshot epoch whose WAL — if present — holds exactly the
// mutations after it. Recovery replays the WAL chain starting at the
// snapshot it chose (wal-e bridges snapshot-e to snapshot-(e+1), so the
// chain composes), and stops at the first missing link or torn record —
// a crash between any two rotation steps is indistinguishable from a
// crash just before or just after the rotation.

#ifndef ZERBERR_STORE_DURABLE_SERVICE_H_
#define ZERBERR_STORE_DURABLE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/service.h"
#include "net/shard_router.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "store/wal.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"
#include "zerber/zerber_index.h"

namespace zr::store {

/// Configuration of a durable store. The server shape (num_lists,
/// placement, seed, num_shards) must match across restarts of the same
/// directory — recovery validates it against the snapshots it finds.
struct DurableOptions {
  /// Root directory of the store (one subdirectory per shard). Created if
  /// missing.
  std::string data_dir;

  /// When an acked mutation is durable (see store/wal.h).
  WalSyncMode sync_mode = WalSyncMode::kGroupCommit;

  /// WAL size that triggers a background snapshot rotation.
  uint64_t snapshot_threshold_bytes = 4ull << 20;

  /// Index shape. `num_lists` is always the GLOBAL list count; shard s of
  /// N holds ListsOnShard(num_lists, N, s) of them (zerber/routing.h).
  size_t num_lists = 0;
  zerber::Placement placement = zerber::Placement::kTrsSorted;
  uint64_t seed = 1;
  size_t num_shards = 1;

  /// MultiFetch workers of DurableIndexService's router (see
  /// net::ShardRouter; kAutoWorkers sizes the pool).
  size_t num_shard_workers = net::ShardRouter::kAutoWorkers;
};

/// One durable shard: shard `s` of options.num_shards, serving through a
/// net::IndexService over its own IndexServer and logging every mutation
/// to the WAL in its directory. Requests name shard-local list ids. The
/// request path is thread-safe; Acl requires quiescence, as on every
/// ShardService.
class DurableShard : public net::ShardService {
 public:
  /// Recovers (or initializes) the shard stored in `dir` and starts its
  /// rotation thread. options.data_dir is not read: `dir` is the shard's
  /// own directory. Shard s of N draws from ShardSeed(seed, N, s) (the
  /// raw seed when N == 1) and assigns handles from the residue class
  /// {h : h % N == s} (zerber/routing.h), exactly like shard s of a
  /// ShardedIndexService with the same seed. Fails with Corruption only
  /// when no snapshot generation validates; a torn WAL tail is normal crash
  /// debris and recovers cleanly.
  static StatusOr<std::unique_ptr<DurableShard>> Open(
      const DurableOptions& options, size_t s, std::string dir);

  /// Clean shutdown: runs a pending rotation, then flushes and closes the
  /// WAL.
  ~DurableShard() override;

  DurableShard(const DurableShard&) = delete;
  DurableShard& operator=(const DurableShard&) = delete;

  // net::ShardService. Mutations ack only after their WAL append is
  // durable per the sync mode.
  StatusOr<net::InsertResponse> Insert(const net::InsertRequest& request)
      override;
  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest& request)
      override;
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override;
  StatusOr<net::DeleteResponse> Delete(const net::DeleteRequest& request)
      override;

  /// Validates, logs, then applies one ACL change. Idempotent: a change the
  /// shard already reflects is skipped (no second record), so re-issuing a
  /// broadcast that a crash or IO error interrupted converges every shard.
  Status Acl(const net::AclRequest& request) override;
  StatusOr<net::StatsResponse> Stats() override;

  /// The shard's IndexServer (quiescence rules apply beyond the request
  /// path).
  zerber::IndexServer& server() { return server_; }

  /// Current WAL size / snapshot epoch (tests, demos).
  uint64_t wal_bytes() const;
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Synchronously snapshots the shard and starts a new WAL epoch.
  Status Rotate();

  /// fsyncs the WAL (clean-shutdown helper for kNone mode).
  Status Flush();

 private:
  DurableShard(const DurableOptions& options, size_t s, std::string dir);

  /// Recovery body of Open (nothing serves the shard yet).
  Status Recover();

  /// Wakes the rotation thread. Touches only the pending flag (never the
  /// WAL pointer), so writers call it after releasing the gate.
  void ScheduleRotation();
  void RotatorLoop();

  const std::string dir_;
  const WalSyncMode sync_mode_;
  const uint64_t snapshot_threshold_bytes_;
  zerber::IndexServer server_;
  net::IndexService service_{&server_};
  obs::Histogram wal_append_latency_;

  /// Writers (Insert/Delete and the index call they wrap) hold this shared;
  /// rotation and ACL changes hold it unique, so a snapshot serializes a
  /// write-quiesced shard while fetches keep flowing.
  mutable SharedMutex gate_;

  /// Read under a shared gate (writers append through it) and swapped only
  /// under the unique gate (rotation) — exactly GUARDED_BY's read-shared /
  /// write-exclusive rule.
  std::unique_ptr<WalWriter> wal_ ZR_GUARDED_BY(gate_);

  std::atomic<uint64_t> epoch_{0};

  Mutex rot_mu_;
  CondVar rot_cv_;
  bool rotation_pending_ ZR_GUARDED_BY(rot_mu_) = false;
  bool stopping_ ZR_GUARDED_BY(rot_mu_) = false;
  /// Publishes the WAL append histogram under the server's labels.
  /// Unregistered before anything it reads is destroyed.
  obs::CollectorHandle metrics_collector_;
  std::thread rotator_;  // last: runs over every member above
};

/// The in-process durable store: a net::ShardRouter over N >= 1
/// DurableShards (N = options.num_shards), shard s in PartitionDir(data_dir,
/// s). Construct via Open(); the request path is thread-safe, and the ACL
/// broadcast (AddGroup/GrantMembership/RevokeMembership, inherited) reaches
/// every shard's logged, idempotent Acl — not atomic across shards, but
/// re-issuing it after a crash or IO error finishes the job. Destruction is
/// a clean shutdown of every shard.
class DurableIndexService : public net::ShardRouter {
 public:
  /// Recovers (or initializes) the store at options.data_dir and starts
  /// serving. Shards recover in parallel.
  static StatusOr<std::unique_ptr<DurableIndexService>> Open(
      const DurableOptions& options);

  /// Number of shards (partitions on disk).
  size_t num_partitions() const { return num_shards(); }

  /// Partition `p`'s IndexServer (quiescence rules apply beyond the
  /// request path).
  zerber::IndexServer& partition(size_t p) { return shard(p).server(); }

  /// Partition 0's IndexServer when the store has one shard, else null.
  zerber::IndexServer* single() {
    return num_shards() == 1 ? &partition(0) : nullptr;
  }

  /// Current WAL size / snapshot epoch of a partition (tests, demos).
  uint64_t wal_bytes(size_t p) const { return shard(p).wal_bytes(); }
  uint64_t epoch(size_t p) const { return shard(p).epoch(); }

  /// Synchronously snapshots partition `p` and starts a new WAL epoch.
  Status RotateNow(size_t p) { return shard(p).Rotate(); }

  /// fsyncs every partition's WAL (clean-shutdown helper for kNone mode).
  Status Flush();

  /// Filename helpers (shared with tests and tooling).
  static std::string PartitionDir(const std::string& data_dir, size_t p);
  static std::string SnapshotPath(const std::string& dir, uint64_t epoch);
  static std::string WalPath(const std::string& dir, uint64_t epoch);

 private:
  DurableIndexService(size_t num_lists,
                      std::vector<std::unique_ptr<net::ShardService>> shards,
                      size_t num_workers)
      : ShardRouter(num_lists, std::move(shards), num_workers) {}

  /// Every handle is a DurableShard: Open builds nothing else.
  DurableShard& shard(size_t s) const {
    return static_cast<DurableShard&>(shard_service(s));
  }
};

}  // namespace zr::store

#endif  // ZERBERR_STORE_DURABLE_SERVICE_H_
