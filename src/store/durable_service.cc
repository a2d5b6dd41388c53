#include "store/durable_service.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/registry.h"
#include "obs/slow_op_log.h"
#include "obs/trace.h"
#include "store/fs.h"
#include "zerber/persistence.h"
#include "zerber/routing.h"

namespace zr::store {

namespace fs = std::filesystem;

namespace {

/// Appends `record` to `wal`, timing the append into the shard's always-on
/// `latency` histogram and — when the calling thread carries an active
/// trace — a kWalAppend span whose detail is the (numeric, local) list id.
/// Telemetry stays sealed: list ids and durations only, never record
/// contents.
Status TimedWalAppend(WalWriter* wal, const WalRecord& record,
                      obs::Histogram* latency) {
  uint64_t start = obs::MonotonicNowNs();
  Status logged = wal->Append(record);
  uint64_t elapsed = obs::MonotonicNowNs() - start;
  latency->Record(elapsed);
  obs::RecordSpan(obs::Stage::kWalAppend, elapsed, record.list);
  obs::SlowOpLog::Global().MaybeRecord({obs::Stage::kWalAppend, record.list,
                                        record.handle, elapsed,
                                        /*trace_id=*/0});
  return logged;
}

/// Parses "<prefix><decimal epoch><suffix>"; false when `name` is not of
/// that shape.
bool ParseEpochName(const std::string& name, const std::string& prefix,
                    const std::string& suffix, uint64_t* epoch) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *epoch = value;
  return true;
}

/// Epochs of "<prefix><epoch><suffix>" files in `dir`, descending.
std::vector<uint64_t> ListEpochs(const std::string& dir,
                                 const std::string& prefix,
                                 const std::string& suffix) {
  std::vector<uint64_t> epochs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t epoch;
    if (ParseEpochName(entry.path().filename().string(), prefix, suffix,
                       &epoch)) {
      epochs.push_back(epoch);
    }
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".idx";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".log";

/// N: a store has at least one shard.
size_t ShardCount(const DurableOptions& options) {
  return std::max<size_t>(1, options.num_shards);
}

}  // namespace

std::string DurableIndexService::PartitionDir(const std::string& data_dir,
                                              size_t p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard-%04zu", p);
  return data_dir + buf;
}

std::string DurableIndexService::SnapshotPath(const std::string& dir,
                                              uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/%s%06" PRIu64 "%s", kSnapshotPrefix,
                epoch, kSnapshotSuffix);
  return dir + buf;
}

std::string DurableIndexService::WalPath(const std::string& dir,
                                         uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/%s%06" PRIu64 "%s", kWalPrefix, epoch,
                kWalSuffix);
  return dir + buf;
}

DurableShard::DurableShard(const DurableOptions& options, size_t s,
                           std::string dir)
    : dir_(std::move(dir)),
      sync_mode_(options.sync_mode),
      snapshot_threshold_bytes_(options.snapshot_threshold_bytes),
      server_(zerber::ListsOnShard(options.num_lists, ShardCount(options), s),
              options.placement,
              zerber::ShardSeed(options.seed, ShardCount(options), s),
              zerber::HandleSpace{ShardCount(options), s}) {
  metrics_collector_ = obs::Registry::Global().RegisterCollector(
      [this](obs::Scrape* out) {
        out->AddHistogram("zr_wal_append_latency_ns", server_.metric_labels(),
                          wal_append_latency_);
      });
}

StatusOr<std::unique_ptr<DurableShard>> DurableShard::Open(
    const DurableOptions& options, size_t s, std::string dir) {
  if (s >= ShardCount(options)) {
    return Status::InvalidArgument("shard " + std::to_string(s) +
                                   " out of range");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  std::unique_ptr<DurableShard> shard(
      new DurableShard(options, s, std::move(dir)));
  ZR_RETURN_IF_ERROR(shard->Recover());
  shard->rotator_ = std::thread([raw = shard.get()] { raw->RotatorLoop(); });
  return shard;
}

DurableShard::~DurableShard() {
  if (rotator_.joinable()) {
    {
      MutexLock lock(rot_mu_);
      stopping_ = true;
    }
    rot_cv_.NotifyAll();
    rotator_.join();
  }
  WriterMutexLock gate(gate_);
  if (wal_) (void)wal_->Close();
}

Status DurableShard::Recover() {
  // Recovery runs before Open() returns: nothing serves this shard yet, so
  // the replay loop below legitimately owns the server's quiescence.
  QuiescenceLock quiesced(server_.quiescence());

  // 1. Newest snapshot generation that validates becomes the base state.
  //    Validation happens before any mutation (RestoreSnapshotInto parses
  //    fully first), so falling back to an older generation is safe.
  uint64_t base_epoch = 0;
  bool restored = false;
  std::vector<uint64_t> snapshots =
      ListEpochs(dir_, kSnapshotPrefix, kSnapshotSuffix);
  Status last_error = Status::OK();
  for (uint64_t epoch : snapshots) {
    StatusOr<std::string> bytes =
        ReadFileToString(DurableIndexService::SnapshotPath(dir_, epoch));
    Status attempt = bytes.ok() ? zerber::RestoreSnapshotInto(&server_, *bytes)
                                : bytes.status();
    if (attempt.ok()) {
      base_epoch = epoch;
      restored = true;
      break;
    }
    last_error = attempt;
  }
  if (!restored && !snapshots.empty()) {
    return Status::Corruption("no valid snapshot in " + dir_ + ": " +
                              last_error.ToString());
  }
  epoch_.store(base_epoch, std::memory_order_relaxed);

  // 2. Replay the WAL chain from the base epoch upward, stopping at the
  //    first torn/corrupt record or missing link — everything before the
  //    stop was acked, everything after never was. The chain matters after
  //    a fallback: wal-e bridges snapshot-e to snapshot-(e+1) exactly, so
  //    when snapshot-(e+1) is the one that rotted, snapshot-e + wal-e +
  //    wal-(e+1) still reconstructs every acked mutation.
  size_t replayed = 0;
  bool base_wal_exists = false;
  bool chain_clean = true;
  for (uint64_t e = base_epoch;; ++e) {
    StatusOr<std::string> wal_bytes =
        ReadWalBytes(DurableIndexService::WalPath(dir_, e));
    if (!wal_bytes.ok()) {
      if (wal_bytes.status().IsNotFound()) break;  // end of the chain
      return wal_bytes.status();
    }
    if (e == base_epoch) base_wal_exists = true;
    WalReadResult scan = ScanWal(*wal_bytes);
    for (WalRecord& record : scan.records) {
      switch (record.type) {
        case WalRecord::Type::kInsert:
          ZR_RETURN_IF_ERROR(
              server_.ReplayInsert(record.list, std::move(record.element)));
          break;
        case WalRecord::Type::kDelete:
          ZR_RETURN_IF_ERROR(server_.ReplayDelete(record.list, record.handle));
          break;
        case WalRecord::Type::kAddGroup:
          ZR_RETURN_IF_ERROR(server_.acl().AddGroup(record.group));
          break;
        case WalRecord::Type::kGrantMembership:
          ZR_RETURN_IF_ERROR(
              server_.acl().GrantMembership(record.user, record.group));
          break;
        case WalRecord::Type::kRevokeMembership:
          ZR_RETURN_IF_ERROR(
              server_.acl().RevokeMembership(record.user, record.group));
          break;
      }
      ++replayed;
    }
    if (!scan.clean) {
      chain_clean = false;
      break;  // torn tail: nothing after it was ever acked
    }
  }

  // 3. Start serving from a clean snapshot + empty log unless that is what
  //    is already on disk: the restored snapshot is the newest on disk,
  //    its own WAL exists, is clean and empty, and no later epoch lingers.
  bool base_is_newest = !snapshots.empty() && snapshots.front() == base_epoch;
  bool no_later_wal = true;
  for (uint64_t e : ListEpochs(dir_, kWalPrefix, kWalSuffix)) {
    if (e > base_epoch) no_later_wal = false;
  }
  if (restored && base_is_newest && base_wal_exists && chain_clean &&
      replayed == 0 && no_later_wal) {
    WriterMutexLock gate(gate_);
    ZR_ASSIGN_OR_RETURN(
        wal_, WalWriter::Open(DurableIndexService::WalPath(dir_, base_epoch),
                              sync_mode_));
    return Status::OK();
  }
  return Rotate();
}

Status DurableShard::Rotate() {
  WriterMutexLock gate(gate_);
  {
    // Clearing pending inside the gate: a concurrent scheduler either sees
    // the flag still set or sets it afresh for a rotation that runs after
    // this one — never a lost trigger.
    MutexLock lock(rot_mu_);
    rotation_pending_ = false;
  }

  // Fail-stop: once the WAL hit an IO error, some applied mutation was
  // reported failed to its client. Snapshotting the live server now would
  // make that unacked mutation durable, so the shard must not rotate
  // again — recovery from the on-disk state is the only way forward.
  if (wal_) ZR_RETURN_IF_ERROR(wal_->status());

  uint64_t prev = epoch_.load(std::memory_order_relaxed);
  // Never reuse any epoch present on disk: after a fallback recovery the
  // directory can hold generations newer than the one restored, and their
  // stale WALs must not pair with the new snapshot.
  uint64_t next = prev + 1;
  for (uint64_t e : ListEpochs(dir_, kSnapshotPrefix, kSnapshotSuffix)) {
    next = std::max(next, e + 1);
  }
  for (uint64_t e : ListEpochs(dir_, kWalPrefix, kWalSuffix)) {
    next = std::max(next, e + 1);
  }

  // Publish snapshot e+1, then its empty WAL; only then retire epoch e.
  std::string snapshot = zerber::SerializeIndexSnapshot(server_);
  ZR_RETURN_IF_ERROR(WriteFileAtomic(
      DurableIndexService::SnapshotPath(dir_, next), snapshot, /*sync=*/true));
  ZR_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> wal,
      WalWriter::Open(DurableIndexService::WalPath(dir_, next), sync_mode_));
  ZR_RETURN_IF_ERROR(SyncDirectory(dir_));

  if (wal_) (void)wal_->Close();
  wal_ = std::move(wal);
  epoch_.store(next, std::memory_order_relaxed);

  // Best-effort cleanup: keep the new generation and its predecessor —
  // snapshot AND WAL, since wal-prev is exactly the delta that makes a
  // fallback from a rotted snapshot-next lossless — and drop the rest.
  std::error_code ec;
  for (uint64_t e : ListEpochs(dir_, kWalPrefix, kWalSuffix)) {
    if (e != next && e != prev) {
      fs::remove(DurableIndexService::WalPath(dir_, e), ec);
    }
  }
  for (uint64_t e : ListEpochs(dir_, kSnapshotPrefix, kSnapshotSuffix)) {
    if (e != next && e != prev) {
      fs::remove(DurableIndexService::SnapshotPath(dir_, e), ec);
    }
  }
  return Status::OK();
}

void DurableShard::ScheduleRotation() {
  MutexLock lock(rot_mu_);
  rotation_pending_ = true;
  rot_cv_.NotifyOne();
}

void DurableShard::RotatorLoop() {
  MutexLock lock(rot_mu_);
  for (;;) {
    while (!stopping_ && !rotation_pending_) rot_cv_.Wait(rot_mu_);
    if (!rotation_pending_) return;  // stopping, nothing pending
    lock.Unlock();
    // A failed background rotation leaves the current epoch serving; the
    // next threshold crossing schedules another.
    (void)Rotate();
    lock.Relock();
  }
}

uint64_t DurableShard::wal_bytes() const {
  ReaderMutexLock gate(gate_);
  return wal_ ? wal_->SizeBytes() : 0;
}

Status DurableShard::Flush() {
  ReaderMutexLock gate(gate_);
  return wal_ ? wal_->Sync() : Status::OK();
}

StatusOr<net::InsertResponse> DurableShard::Insert(
    const net::InsertRequest& request) {
  ReaderMutexLock gate(gate_);
  ZR_RETURN_IF_ERROR(wal_->status());  // fail-stop: fail fast
  ZR_ASSIGN_OR_RETURN(net::InsertResponse response, service_.Insert(request));
  WalRecord record;
  record.type = WalRecord::Type::kInsert;
  record.list = request.list;
  record.element = request.element;
  record.element.handle = response.handle;
  Status logged = TimedWalAppend(wal_.get(), record, &wal_append_latency_);
  if (!logged.ok()) {
    // The insert is unacked; scrub it from the live index so serving
    // matches what recovery will reconstruct. (Deletes cannot be undone
    // this way — see the fail-stop note in the header.)
    //
    // ReplayDelete is quiescent-only by contract, but the scrub is sound
    // mid-traffic: it locks the owning stripe internally, and the handle
    // it removes was never acked to any client, so no concurrent request
    // can legitimately name it. AssertHeld documents (and silences) this
    // deliberate exception rather than widening the replay contract.
    server_.quiescence().AssertHeld();
    (void)server_.ReplayDelete(record.list, response.handle);
    return logged;
  }
  // Read the WAL size under the gate (rotation swaps the WAL out under the
  // exclusive side); schedule the rotation after releasing it.
  bool rotate = wal_->SizeBytes() >= snapshot_threshold_bytes_;
  gate.Unlock();
  if (rotate) ScheduleRotation();
  return response;
}

StatusOr<net::QueryResponse> DurableShard::Fetch(
    const net::QueryRequest& request) {
  return service_.Fetch(request);
}

StatusOr<net::MultiFetchResponse> DurableShard::MultiFetch(
    const net::MultiFetchRequest& request) {
  return service_.MultiFetch(request);
}

StatusOr<net::DeleteResponse> DurableShard::Delete(
    const net::DeleteRequest& request) {
  ReaderMutexLock gate(gate_);
  ZR_RETURN_IF_ERROR(wal_->status());  // fail-stop: fail fast
  ZR_ASSIGN_OR_RETURN(net::DeleteResponse response, service_.Delete(request));
  WalRecord record;
  record.type = WalRecord::Type::kDelete;
  record.list = request.list;
  record.handle = request.handle;
  ZR_RETURN_IF_ERROR(
      TimedWalAppend(wal_.get(), record, &wal_append_latency_));
  bool rotate = wal_->SizeBytes() >= snapshot_threshold_bytes_;
  gate.Unlock();
  if (rotate) ScheduleRotation();
  return response;
}

// The exclusive gate fences any straggling writer on this shard; the ACL
// contract (no requests in flight) is what makes the quiescence claim true.
// The change is checked against the live ACL, logged, and only then applied,
// so a failed append leaves the live ACL as the disk has it.
Status DurableShard::Acl(const net::AclRequest& request) {
  WriterMutexLock gate(gate_);
  ZR_RETURN_IF_ERROR(wal_->status());  // fail-stop: fail fast
  WalRecord record;
  record.user = request.user;
  record.group = request.group;
  {
    QuiescenceLock quiesced(server_.quiescence());
    const zerber::AccessControl& acl = server_.acl();
    bool known = acl.HasGroup(request.group);
    bool member = acl.IsMember(request.user, request.group);
    switch (request.op) {
      case net::AclRequest::Op::kAddGroup:
        if (known) return Status::OK();
        record.type = WalRecord::Type::kAddGroup;
        break;
      case net::AclRequest::Op::kGrant:
        if (member) return Status::OK();
        record.type = WalRecord::Type::kGrantMembership;
        break;
      case net::AclRequest::Op::kRevoke:
        if (known && !member) return Status::OK();
        record.type = WalRecord::Type::kRevokeMembership;
        break;
      default:
        return Status::InvalidArgument("unknown ACL op");
    }
    if (!known && record.type != WalRecord::Type::kAddGroup) {
      return Status::NotFound("group " + std::to_string(request.group) +
                              " unknown");
    }
  }
  ZR_RETURN_IF_ERROR(wal_->Append(record));
  return service_.Acl(request);
}

StatusOr<net::StatsResponse> DurableShard::Stats() { return service_.Stats(); }

StatusOr<std::unique_ptr<DurableIndexService>> DurableIndexService::Open(
    const DurableOptions& options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("DurableOptions.data_dir is empty");
  }
  // Shards recover in parallel (each is self-contained: its snapshot
  // carries the shard's lists and ACL, its WAL the tail); shard 0 recovers
  // on the calling thread.
  size_t num_shards = ShardCount(options);
  std::vector<std::unique_ptr<net::ShardService>> shards(num_shards);
  std::vector<Status> results(num_shards);
  auto open = [&](size_t s) {
    StatusOr<std::unique_ptr<DurableShard>> shard =
        DurableShard::Open(options, s, PartitionDir(options.data_dir, s));
    if (shard.ok()) {
      shards[s] = std::move(*shard);
    } else {
      results[s] = shard.status();
    }
  };
  std::vector<std::thread> recoverers;
  for (size_t s = 1; s < num_shards; ++s) recoverers.emplace_back(open, s);
  open(0);
  for (std::thread& t : recoverers) t.join();
  for (const Status& s : results) ZR_RETURN_IF_ERROR(s);
  return std::unique_ptr<DurableIndexService>(new DurableIndexService(
      options.num_lists, std::move(shards), options.num_shard_workers));
}

Status DurableIndexService::Flush() {
  for (size_t p = 0; p < num_partitions(); ++p) {
    ZR_RETURN_IF_ERROR(shard(p).Flush());
  }
  return Status::OK();
}

}  // namespace zr::store
