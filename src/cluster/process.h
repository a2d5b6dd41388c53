// ShardProcess: fork/exec lifecycle of one shard-server process.
//
// Cluster tests, the loadgen cluster config and the demo all need to start
// real shard-server processes (tools/shard_server.cc), learn which
// ephemeral port each one bound, and later kill (SIGKILL — crash) or
// terminate (SIGTERM — graceful shutdown) them. fork+exec, not fork alone:
// the TSan jobs run cluster tests, and a forked child of a threaded test
// binary may not create threads — a fresh exec image may.
//
// Readiness: the child prints "listening on <host:port>" to stdout (its
// stdout is a pipe to the parent); Start blocks until that line arrives,
// so an ephemeral --listen 127.0.0.1:0 works without port races.
//
// Threading: single-threaded (one owner per process handle). Ownership:
// owns the child — the destructor SIGKILLs and reaps it if still running.

#ifndef ZERBERR_CLUSTER_PROCESS_H_
#define ZERBERR_CLUSTER_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace zr::cluster {

/// Path of the shard-server binary: $ZR_SHARD_SERVER when set (CMake points
/// it at the build tree for tests), else the shard_server beside the running
/// executable (every binary of a build lands in one directory), so callers
/// work from any working directory.
std::string ShardServerBinary();

class ShardProcess {
 public:
  /// Spawns `binary` with `args` (argv[0] is derived from the binary path)
  /// and waits up to `ready_timeout_ms` for the readiness line. A binary
  /// that cannot be executed fails at once, with the exec error.
  static StatusOr<std::unique_ptr<ShardProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      uint64_t ready_timeout_ms = 15000);

  ~ShardProcess();

  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  /// "host:port" the child reported listening on.
  const std::string& addr() const { return addr_; }

  pid_t pid() const { return pid_; }

  /// True until the child has been reaped.
  bool running() const { return pid_ > 0; }

  /// SIGKILL + reap: simulates a crash (no WAL flush, no frame drain).
  Status Kill();

  /// SIGTERM + reap: graceful shutdown (the server drains and flushes).
  Status Terminate();

 private:
  ShardProcess() = default;

  Status Signal(int signo);
  Status Reap();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;  ///< kept open so the child never takes SIGPIPE
  std::string addr_;
};

}  // namespace zr::cluster

#endif  // ZERBERR_CLUSTER_PROCESS_H_
