// Write-ahead log for index mutations.
//
// Every acknowledged mutation of a durable index partition — Insert,
// Delete, and the ACL operations — is appended to the partition's WAL
// before the ack is returned, so a crash loses nothing the client was told
// succeeded. Recovery replays the log tail on top of the newest snapshot
// (store/durable_service.h) and stops cleanly at the first torn or corrupt
// record.
//
// On-disk record format (all integers in util/coding conventions):
//
//   varint frame_len
//   frame: the WalRecord (WalRecord::Fields: its type byte, then the
//          fields that type carries; inserts carry the stored-element
//          encoding)
//   checksum: first 8 bytes of SHA-256(frame)
//
// The truncated SHA-256 checksum detects torn writes and bit rot per
// record; element payloads additionally carry their own HMAC tag, so even
// a malicious storage layer cannot forge posting contents (clients verify
// on decrypt) — the WAL is HMAC-compatible by construction because it
// stores sealed elements verbatim.
//
// Sync modes (paper-system tradeoff, see README "Durability"):
//   kNone        — append to the OS page cache only; a process crash loses
//                  nothing, a power cut may lose the unsynced suffix.
//   kGroupCommit — concurrent writers enqueue records and one leader
//                  writes + fsyncs the whole batch, so an append returns
//                  once it is durable and N threads amortize one fsync
//                  (LevelDB-style group commit). A lone writer is its own
//                  leader: one write and one fsync per record.

#ifndef ZERBERR_STORE_WAL_H_
#define ZERBERR_STORE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/codec.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"
#include "zerber/posting_element.h"

namespace zr::store {

/// When an append becomes durable relative to its ack.
enum class WalSyncMode {
  kNone,         ///< no fsync on append (page cache only)
  kGroupCommit,  ///< batched: one fsync per leader-committed group
};

/// "none" / "group-commit" (banners, benches).
const char* WalSyncModeName(WalSyncMode mode);

/// One logged mutation. `list` is partition-local (each shard owns a WAL
/// over its local list space).
struct WalRecord {
  enum class Type : uint8_t {
    kInsert = 1,            ///< element (with server handle) into `list`
    kDelete = 2,            ///< `handle` out of `list`
    kAddGroup = 3,          ///< ACL: register `group`
    kGrantMembership = 4,   ///< ACL: `user` joins `group`
    kRevokeMembership = 5,  ///< ACL: `user` leaves `group`
  };

  Type type = Type::kInsert;
  uint32_t list = 0;    ///< kInsert / kDelete
  uint64_t handle = 0;  ///< kDelete (kInsert carries it inside the element)
  zerber::EncryptedPostingElement element;  ///< kInsert
  uint32_t user = 0;    ///< kGrantMembership / kRevokeMembership
  uint32_t group = 0;   ///< ACL record types

  /// The frame: the type byte, then the fields that type carries.
  static void Fields(auto& r, auto&& f) {
    f(r.type);
    switch (r.type) {
      case Type::kInsert:
        f(r.list);
        f(r.element);
        break;
      case Type::kDelete:
        f(r.list);
        f(r.handle);
        break;
      case Type::kAddGroup:
        f(r.group);
        break;
      case Type::kGrantMembership:
      case Type::kRevokeMembership:
        f(r.user);
        f(r.group);
        break;
    }
  }
};

}  // namespace zr::store

namespace zr::codec {

template <>
struct Field<store::WalRecord::Type>
    : EnumField<store::WalRecord::Type, uint8_t,
                store::WalRecord::Type::kInsert,
                store::WalRecord::Type::kRevokeMembership> {};

}  // namespace zr::codec

namespace zr::store {

/// Serializes one record (length prefix + frame + truncated checksum).
std::string EncodeWalRecord(const WalRecord& record);

/// Parses the frame of one record (after the length prefix / checksum have
/// been stripped and verified). Corruption on malformed input.
StatusOr<WalRecord> DecodeWalFrame(std::string_view frame);

/// Result of scanning a WAL file.
struct WalReadResult {
  /// Records of the valid prefix, in append order.
  std::vector<WalRecord> records;

  /// File offset just past each record in `records` (for crash-injection
  /// tests mapping byte truncations back to record boundaries).
  std::vector<uint64_t> record_ends;

  /// Length of the valid prefix (== record_ends.back(), 0 when empty).
  uint64_t valid_bytes = 0;

  /// False when a torn or corrupt tail was ignored after `valid_bytes`.
  bool clean = true;
};

/// Reads a WAL file, stopping at the first torn/corrupt record (which is
/// reported via `clean`/`valid_bytes`, not as an error — a torn tail is the
/// expected signature of a crash mid-append). NotFound if the file does
/// not exist; Internal on IO errors.
StatusOr<WalReadResult> ReadWal(const std::string& path);

/// Raw bytes of a WAL file (NotFound if absent; Internal on IO errors).
StatusOr<std::string> ReadWalBytes(const std::string& path);

/// Scans in-memory WAL bytes (the parsing half of ReadWal; crash-injection
/// tests scan arbitrary prefixes with it).
WalReadResult ScanWal(std::string_view data);

/// Append-only WAL writer. Thread-safe: any number of threads may Append
/// concurrently; durability per WalSyncMode. IO failures are sticky — once
/// an append fails, every later append fails (callers must treat the
/// mutation as unacknowledged either way).
class WalWriter {
 public:
  /// Opens (creates or appends to) the WAL at `path`.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                   WalSyncMode mode);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record; returns once the record is durable per the sync
  /// mode (for kGroupCommit: once the batch containing it is fsynced).
  Status Append(const WalRecord& record);

  /// Bytes enqueued for the log so far (file size once all batches land);
  /// drives snapshot-rotation thresholds.
  uint64_t SizeBytes() const { return size_.load(std::memory_order_relaxed); }

  /// Forces an fsync (used by kNone mode on clean shutdown).
  Status Sync();

  /// The sticky IO error, or OK. Once set, every Append fails with it; the
  /// durable service treats such a partition as fail-stopped (mutations
  /// error, no further snapshot is taken from it).
  Status status() const;

  /// Flushes, fsyncs and closes the file. Further appends fail.
  Status Close();

  const std::string& path() const { return path_; }
  WalSyncMode mode() const { return mode_; }

 private:
  WalWriter(std::string path, WalSyncMode mode, int fd, uint64_t size);

  /// Writes `data` fully to fd_ and fsyncs it (the group-commit leader,
  /// unlocked, or Sync/Close under the lock).
  Status WriteAndSync(std::string_view data);

  const std::string path_;
  const WalSyncMode mode_;
  // Not ZR_GUARDED_BY(mu_): the group-commit leader writes to fd_ with mu_
  // deliberately dropped (that is the whole point of group commit). Safe
  // because commit_in_flight_ serializes leaders and Close waits for
  // !commit_in_flight_ before closing the descriptor.
  int fd_;
  std::atomic<uint64_t> size_;

  mutable Mutex mu_;
  CondVar cv_;
  std::string pending_ ZR_GUARDED_BY(mu_);    // records awaiting commit
  uint64_t enqueued_seq_ ZR_GUARDED_BY(mu_) = 0;  // records enqueued
  uint64_t durable_seq_ ZR_GUARDED_BY(mu_) = 0;   // records committed
  bool commit_in_flight_ ZR_GUARDED_BY(mu_) = false;
  Status io_error_ ZR_GUARDED_BY(mu_);        // sticky
  bool closed_ ZR_GUARDED_BY(mu_) = false;
};

}  // namespace zr::store

#endif  // ZERBERR_STORE_WAL_H_
