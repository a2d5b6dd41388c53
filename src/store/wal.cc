#include "store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "crypto/sha256.h"
#include "store/fs.h"
#include "util/coding.h"

namespace zr::store {

namespace {

constexpr size_t kChecksumSize = 8;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

void AppendChecksum(std::string* dst, std::string_view frame) {
  crypto::Sha256Digest digest = crypto::Sha256::Hash(frame);
  dst->append(reinterpret_cast<const char*>(digest.data()), kChecksumSize);
}

bool ChecksumMatches(std::string_view frame, std::string_view checksum) {
  crypto::Sha256Digest digest = crypto::Sha256::Hash(frame);
  return std::string_view(reinterpret_cast<const char*>(digest.data()),
                          kChecksumSize) == checksum;
}

}  // namespace

const char* WalSyncModeName(WalSyncMode mode) {
  switch (mode) {
    case WalSyncMode::kNone: return "none";
    case WalSyncMode::kGroupCommit: return "group-commit";
  }
  return "unknown";
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string frame = codec::Encode(record);
  std::string out;
  PutVarint64(&out, frame.size());
  out += frame;
  AppendChecksum(&out, frame);
  return out;
}

StatusOr<WalRecord> DecodeWalFrame(std::string_view frame) {
  return codec::Decode<WalRecord>(frame);
}

StatusOr<WalReadResult> ReadWal(const std::string& path) {
  StatusOr<std::string> data = ReadWalBytes(path);
  if (!data.ok()) return data.status();
  return ScanWal(*data);
}

StatusOr<std::string> ReadWalBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no WAL at " + path);
    return Errno("open " + path);
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read " + path);
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

WalReadResult ScanWal(std::string_view data) {
  WalReadResult result;
  std::string_view cursor = data;
  while (!cursor.empty()) {
    std::string_view attempt = cursor;
    uint64_t frame_len = 0;
    if (!GetVarint64Cursor(&attempt, &frame_len).ok()) break;  // torn varint
    // Overflow-safe torn-record check: a corrupt length varint may decode
    // near 2^64, and frame_len + kChecksumSize must not wrap past it.
    if (attempt.size() < kChecksumSize ||
        frame_len > attempt.size() - kChecksumSize) {
      break;  // torn record
    }
    std::string_view frame = attempt.substr(0, frame_len);
    std::string_view checksum = attempt.substr(frame_len, kChecksumSize);
    if (!ChecksumMatches(frame, checksum)) break;  // corrupt record
    StatusOr<WalRecord> record = DecodeWalFrame(frame);
    if (!record.ok()) break;  // checksummed but structurally invalid
    cursor = attempt.substr(frame_len + kChecksumSize);
    result.records.push_back(std::move(*record));
    result.record_ends.push_back(
        static_cast<uint64_t>(data.size() - cursor.size()));
  }
  result.valid_bytes =
      result.record_ends.empty() ? 0 : result.record_ends.back();
  result.clean = result.valid_bytes == data.size();
  return result;
}

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                     WalSyncMode mode) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("fstat " + path);
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, mode, fd, static_cast<uint64_t>(st.st_size)));
}

WalWriter::WalWriter(std::string path, WalSyncMode mode, int fd, uint64_t size)
    : path_(std::move(path)), mode_(mode), fd_(fd), size_(size) {}

WalWriter::~WalWriter() { (void)Close(); }

Status WalWriter::WriteAndSync(std::string_view data) {
  ZR_RETURN_IF_ERROR(WriteFully(fd_, data, path_));
  if (::fsync(fd_) != 0) return Errno("fsync " + path_);
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  std::string encoded = EncodeWalRecord(record);

  MutexLock lock(mu_);
  if (!io_error_.ok()) return io_error_;
  if (closed_) return Status::FailedPrecondition("WAL " + path_ + " closed");

  if (mode_ == WalSyncMode::kNone) {
    // Unsynced: write to the page cache under the lock.
    Status s = WriteFully(fd_, encoded, path_);
    if (!s.ok()) {
      io_error_ = s;
      return s;
    }
    size_.fetch_add(encoded.size(), std::memory_order_relaxed);
    return Status::OK();
  }

  // Group commit: enqueue, then either lead a batch commit or wait for a
  // leader to carry this record's batch to disk.
  pending_ += encoded;
  size_.fetch_add(encoded.size(), std::memory_order_relaxed);
  uint64_t my_seq = ++enqueued_seq_;
  while (durable_seq_ < my_seq) {
    if (!io_error_.ok()) return io_error_;
    if (!commit_in_flight_) {
      commit_in_flight_ = true;
      std::string batch;
      batch.swap(pending_);
      uint64_t batch_end = enqueued_seq_;
      lock.Unlock();
      Status s = WriteAndSync(batch);
      lock.Relock();
      commit_in_flight_ = false;
      if (!s.ok()) {
        io_error_ = s;
        cv_.NotifyAll();
        return s;
      }
      durable_seq_ = batch_end;
      cv_.NotifyAll();
    } else {
      cv_.Wait(mu_);
    }
  }
  return Status::OK();
}

Status WalWriter::status() const {
  MutexLock lock(mu_);
  return io_error_;
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  if (!io_error_.ok()) return io_error_;
  if (closed_) return Status::OK();
  // Wait out any in-flight group commit so pending_ is quiesced, then flush
  // whatever remains and fsync.
  while (commit_in_flight_) cv_.Wait(mu_);
  if (!io_error_.ok()) return io_error_;
  std::string batch;
  batch.swap(pending_);
  uint64_t batch_end = enqueued_seq_;
  Status s = WriteAndSync(batch);
  if (!s.ok()) {
    io_error_ = s;
    cv_.NotifyAll();
    return s;
  }
  durable_seq_ = batch_end;
  cv_.NotifyAll();
  return Status::OK();
}

Status WalWriter::Close() {
  // One critical section end to end. The previous implementation released
  // mu_ between its final Sync() and closing fd_, so a new Append could
  // become a group-commit leader and write to fd_ (unlocked, by design)
  // while Close was closing it — a race the thread-safety annotations
  // surfaced. Now Close waits out any leader, flushes, and closes without
  // ever dropping the lock; late Appends see closed_ and fail cleanly.
  MutexLock lock(mu_);
  if (closed_) return Status::OK();
  while (commit_in_flight_) cv_.Wait(mu_);
  Status s = io_error_;
  if (s.ok()) {
    std::string batch;
    batch.swap(pending_);
    uint64_t batch_end = enqueued_seq_;
    s = WriteAndSync(batch);
    if (s.ok()) {
      durable_seq_ = batch_end;
    } else {
      io_error_ = s;
    }
  }
  closed_ = true;
  cv_.NotifyAll();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return s;
}

}  // namespace zr::store
