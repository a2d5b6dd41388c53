#include "cluster/process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace zr::cluster {

std::string ShardServerBinary() {
  const char* env = std::getenv("ZR_SHARD_SERVER");
  if (env != nullptr && env[0] != '\0') return env;
  std::error_code ec;
  std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "shard_server";
  return (self.parent_path() / "shard_server").string();
}

StatusOr<std::unique_ptr<ShardProcess>> ShardProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    uint64_t ready_timeout_ms) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) {
    return Status::Internal(std::string("cluster: pipe: ") +
                            std::strerror(errno));
  }
  // The child reports a failed execv's errno here; a successful exec closes
  // the write end (close-on-exec), so the parent reads EOF.
  int exec_pipe[2];
  if (::pipe2(exec_pipe, O_CLOEXEC) != 0) {
    int err = errno;
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return Status::Internal(std::string("cluster: pipe: ") +
                            std::strerror(err));
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    int err = errno;
    for (int fd : {out_pipe[0], out_pipe[1], exec_pipe[0], exec_pipe[1]}) {
      ::close(fd);
    }
    return Status::Internal(std::string("cluster: fork: ") +
                            std::strerror(err));
  }
  if (pid == 0) {
    // Child: stdout -> pipe, then exec. Only async-signal-safe calls here.
    ::close(out_pipe[0]);
    ::close(exec_pipe[0]);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 2);
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    int err = errno;
    (void)!::write(exec_pipe[1], &err, sizeof(err));
    _exit(127);  // exec failed
  }

  ::close(out_pipe[1]);
  ::close(exec_pipe[1]);
  auto process = std::unique_ptr<ShardProcess>(new ShardProcess());
  process->pid_ = pid;
  process->stdout_fd_ = out_pipe[0];

  int exec_errno = 0;
  ssize_t got;
  do {
    got = ::read(exec_pipe[0], &exec_errno, sizeof(exec_errno));
  } while (got < 0 && errno == EINTR);
  ::close(exec_pipe[0]);
  if (got == static_cast<ssize_t>(sizeof(exec_errno))) {
    return Status::Internal("cluster: cannot execute shard server '" +
                            binary + "': " + std::strerror(exec_errno));
  }

  // Wait for the readiness line: "listening on <host:port>\n".
  static constexpr char kReadyPrefix[] = "listening on ";
  std::string buffered;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(ready_timeout_ms);
  for (;;) {
    size_t line_start = 0;
    for (size_t i = 0; i < buffered.size(); ++i) {
      if (buffered[i] != '\n') continue;
      std::string line = buffered.substr(line_start, i - line_start);
      line_start = i + 1;
      if (line.rfind(kReadyPrefix, 0) == 0) {
        process->addr_ = line.substr(sizeof(kReadyPrefix) - 1);
        return process;
      }
    }
    buffered.erase(0, line_start);

    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) {
      return Status::Internal("cluster: shard server '" + binary +
                              "' not ready within " +
                              std::to_string(ready_timeout_ms) + "ms");
    }
    pollfd p;
    p.fd = process->stdout_fd_;
    p.events = POLLIN;
    p.revents = 0;
    int pn = ::poll(&p, 1, static_cast<int>(left));
    if (pn < 0 && errno == EINTR) continue;
    if (pn <= 0) {
      return Status::Internal("cluster: shard server '" + binary +
                              "' not ready within " +
                              std::to_string(ready_timeout_ms) + "ms");
    }
    char buf[512];
    ssize_t n = ::read(process->stdout_fd_, buf, sizeof(buf));
    if (n > 0) {
      buffered.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF: the child exited (bad flags, port in use) before announcing
    // readiness.
    return Status::Internal("cluster: shard server '" + binary +
                            "' exited before becoming ready");
  }
}

ShardProcess::~ShardProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    (void)Reap();
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

Status ShardProcess::Signal(int signo) {
  if (pid_ <= 0) return Status::FailedPrecondition("cluster: child already reaped");
  if (::kill(pid_, signo) != 0) {
    return Status::Internal(std::string("cluster: kill: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status ShardProcess::Reap() {
  if (pid_ <= 0) return Status::OK();
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(pid_, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  pid_ = -1;
  if (reaped < 0) {
    return Status::Internal(std::string("cluster: waitpid: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status ShardProcess::Kill() {
  ZR_RETURN_IF_ERROR(Signal(SIGKILL));
  return Reap();
}

Status ShardProcess::Terminate() {
  ZR_RETURN_IF_ERROR(Signal(SIGTERM));
  return Reap();
}

}  // namespace zr::cluster
