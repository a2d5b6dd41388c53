#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/messages.h"
#include "obs/registry.h"
#include "util/coding.h"
#include "util/mutex.h"

namespace zr::net {

namespace {

Status ErrnoStatus(const char* what, int err) {
  return Status::Internal(std::string("tcp: ") + what + ": " +
                          std::strerror(err));
}

/// The wire bytes of the error answer carrying `error`.
std::string ErrorFrame(const Status& error) {
  return Serialize(ErrorResponse::Of(error));
}

/// Parses "host:port" (numeric IPv4 + decimal port) into a sockaddr_in.
Status ParseAddr(const std::string& addr, sockaddr_in* out) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return Status::InvalidArgument("tcp: address must be host:port, got '" +
                                   addr + "'");
  }
  std::string host = addr.substr(0, colon);
  char* end = nullptr;
  unsigned long port = std::strtoul(addr.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    return Status::InvalidArgument("tcp: bad port in '" + addr + "'");
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &out->sin_addr) != 1) {
    return Status::InvalidArgument("tcp: bad IPv4 host in '" + addr + "'");
  }
  return Status::OK();
}

std::string FormatAddr(const sockaddr_in& sa) {
  char buf[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf));
  return std::string(buf) + ":" + std::to_string(ntohs(sa.sin_port));
}

// Frame headers are the shared little-endian codec (util/coding.h), not a
// private byte-order implementation.
uint32_t DecodeFrameLength(const char* p) {
  uint32_t length = 0;
  std::string_view header(p, kFrameHeaderBytes);
  (void)GetFixed32Cursor(&header, &length);  // 4 bytes present by construction
  return length;
}

void AppendFrameHeader(std::string* out, uint32_t length) {
  PutFixed32(out, length);
}

/// Appends the header + extension block of a flagged frame. Returns false
/// when the extension cannot be expressed (block too large or the combined
/// length overflowing the 31-bit field) — the caller then frames plainly.
bool AppendExtendedFrameHeader(std::string* out, std::string_view ext,
                               size_t payload_size) {
  uint64_t total = 1 + ext.size() + payload_size;
  if (ext.size() > 255 || total > kFrameLengthMask) return false;
  PutFixed32(out, kFrameFlagExtension | static_cast<uint32_t>(total));
  out->push_back(static_cast<char>(ext.size()));
  out->append(ext);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame extension codec (tracing — see the framing comment in tcp.h).
// ---------------------------------------------------------------------------

std::string EncodeTraceContextExt(const obs::TraceContext& ctx) {
  return codec::Encode(
      FrameExtension{FrameExtension::Type::kTraceContext, ctx, {}});
}

std::string EncodeSpanReportExt(const std::vector<obs::SpanRecord>& spans) {
  size_t count = std::min(spans.size(), kMaxSpansPerFrame);
  return codec::Encode(FrameExtension{FrameExtension::Type::kSpanReport,
                                      {},
                                      {spans.begin(), spans.begin() + count}});
}

bool ConsumeFrameExtension(std::string_view* body, obs::TraceContext* ctx,
                           std::vector<obs::SpanRecord>* spans) {
  if (body->empty()) return false;  // flagged frame too short for ext_len
  uint8_t ext_len = static_cast<uint8_t>((*body)[0]);
  if (1u + ext_len > body->size()) return false;  // torn extension
  std::string_view ext = body->substr(1, ext_len);
  body->remove_prefix(1u + ext_len);
  // Empty (no context attached), or a type this side does not read.
  using Type = FrameExtension::Type;
  const auto type =
      static_cast<Type>(ext.empty() ? 0 : static_cast<uint8_t>(ext[0]));
  if (!(type == Type::kTraceContext && ctx != nullptr) &&
      !(type == Type::kSpanReport && spans != nullptr)) {
    return true;
  }
  StatusOr<FrameExtension> decoded = codec::Decode<FrameExtension>(ext);
  if (!decoded.ok() || decoded->spans.size() > kMaxSpansPerFrame) {
    return false;
  }
  if (type == Type::kTraceContext) {
    *ctx = decoded->trace;
  } else {
    *spans = std::move(decoded->spans);
  }
  return true;
}

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Epoll: the readiness notification of the server's event loop.
// ---------------------------------------------------------------------------

class Epoll {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  Epoll() = default;
  ~Epoll() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1", errno);
    return Status::OK();
  }

  /// Registers `fd` with read interest only.
  Status Add(int fd) {
    return Control(EPOLL_CTL_ADD, fd, /*want_read=*/true,
                   /*want_write=*/false);
  }
  Status Update(int fd, bool want_read, bool want_write) {
    return Control(EPOLL_CTL_MOD, fd, want_read, want_write);
  }
  void Remove(int fd) { ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Blocks until at least one fd is ready; fills `*events`. Retries
  /// EINTR internally.
  Status Wait(std::vector<Event>* events) {
    events->clear();
    epoll_event raw[64];
    int n;
    do {
      n = ::epoll_wait(epoll_fd_, raw, 64, -1);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return ErrnoStatus("epoll_wait", errno);
    events->reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = raw[i].data.fd;
      e.readable = (raw[i].events & (EPOLLIN | EPOLLERR)) != 0;
      e.writable = (raw[i].events & EPOLLOUT) != 0;
      e.hangup = (raw[i].events & (EPOLLHUP | EPOLLRDHUP)) != 0;
      events->push_back(e);
    }
    return Status::OK();
  }

 private:
  Status Control(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = (want_read ? EPOLLIN | EPOLLRDHUP : 0u) |
                (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
      return ErrnoStatus("epoll_ctl", errno);
    }
    return Status::OK();
  }

  int epoll_fd_ = -1;
};

}  // namespace

// ---------------------------------------------------------------------------
// ServerConfig
// ---------------------------------------------------------------------------

namespace {

/// Opens a non-blocking listening socket on `sa`. On failure the fd is
/// closed before the status returns.
StatusOr<int> OpenListenSocket(const sockaddr_in& sa, bool reuse_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    int err = errno;
    ::close(fd);
    return ErrnoStatus("bind", err);
  }
  if (::listen(fd, 128) != 0) {
    int err = errno;
    ::close(fd);
    return ErrnoStatus("listen", err);
  }
  return fd;
}

}  // namespace

ServerConfig ServerConfig::Local(uint16_t port) {
  ServerConfig config;
  config.listen_addr_ = "127.0.0.1:" + std::to_string(port);
  return config;
}

ServerConfig ServerConfig::At(std::string listen_addr) {
  ServerConfig config;
  config.listen_addr_ = std::move(listen_addr);
  return config;
}

ServerConfig& ServerConfig::WithLoops(size_t num_loops) {
  num_loops_ = num_loops;
  return *this;
}

ServerConfig& ServerConfig::WithAcceptMode(AcceptMode mode) {
  accept_mode_ = mode;
  return *this;
}

ServerConfig& ServerConfig::WithMaxFramePayload(size_t bytes) {
  max_frame_payload_ = bytes;
  return *this;
}

ServerConfig& ServerConfig::WithMaxSessionBacklog(size_t bytes) {
  max_session_backlog_ = bytes;
  return *this;
}

ServerConfig& ServerConfig::WithServerId(uint64_t id) {
  server_id_ = id;
  return *this;
}

ServerConfig& ServerConfig::WithStatsSource(
    std::function<StatsResponse()> source) {
  stats_source_ = std::move(source);
  return *this;
}

ServerConfig& ServerConfig::WithAclHandler(
    std::function<Status(const AclRequest&)> handler) {
  acl_handler_ = std::move(handler);
  return *this;
}

Status ServerConfig::Validate() const {
  sockaddr_in sa;
  ZR_RETURN_IF_ERROR(ParseAddr(listen_addr_, &sa));
  if (num_loops_ == 0) {
    return Status::InvalidArgument("tcp: config needs at least one loop");
  }
  if (num_loops_ > kMaxEventLoops) {
    return Status::InvalidArgument(
        "tcp: config asks for " + std::to_string(num_loops_) +
        " loops; the ceiling is " + std::to_string(kMaxEventLoops));
  }
  if (max_frame_payload_ == 0) {
    return Status::InvalidArgument(
        "tcp: a zero frame payload ceiling can never admit a request");
  }
  if (max_session_backlog_ < max_frame_payload_) {
    return Status::InvalidArgument(
        "tcp: session backlog (" + std::to_string(max_session_backlog_) +
        ") below the frame payload ceiling (" +
        std::to_string(max_frame_payload_) +
        ") could stall a session on its own response");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

class TcpServer::Impl {
 public:
  Impl(ZerberService* backend, ServerConfig config)
      : backend_(backend), config_(std::move(config)) {}

  ~Impl() {
    Stop();
    // Members then unwind in reverse declaration order: the metrics
    // collector handle (last member) unregisters first — and
    // RemoveCollector blocks out in-flight scrapes — so a scrape can
    // never read a dying loop's stats shard.
  }

  Status Init() {
    ZR_RETURN_IF_ERROR(config_.Validate());
    // The length value is 31 bits (the top bit flags a frame extension);
    // a larger configured limit could truncate a response length silently.
    max_frame_payload_ =
        std::min<size_t>(config_.max_frame_payload(), kFrameLengthMask);
    max_session_backlog_ = config_.max_session_backlog();

    sockaddr_in sa;
    ZR_RETURN_IF_ERROR(ParseAddr(config_.listen_addr(), &sa));

    const size_t n = config_.num_loops();
    const bool reuse_port =
        n > 1 && config_.accept_mode() == AcceptMode::kReusePort;

    loops_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      loops_.push_back(std::make_unique<EventLoop>(this, i));
    }

    if (reuse_port) {
      // One listening socket per loop, all on the same address. The first
      // bind resolves an ephemeral port; the others bind the resolved
      // address, so --listen host:0 works with any loop count.
      sockaddr_in bound = sa;
      for (size_t i = 0; i < n; ++i) {
        ZR_ASSIGN_OR_RETURN(int fd, OpenListenSocket(i == 0 ? sa : bound,
                                                     /*reuse_port=*/true));
        loops_[i]->set_listen_fd(fd);
        if (i == 0) {
          socklen_t bound_len = sizeof(bound);
          if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                            &bound_len) != 0) {
            return ErrnoStatus("getsockname", errno);
          }
          address_ = FormatAddr(bound);
        }
      }
    } else {
      // One listening socket, owned by loop 0. With more than one loop,
      // loop 0 is the acceptor and deals fds round-robin into the other
      // loops' inboxes (hand-off mode).
      ZR_ASSIGN_OR_RETURN(int fd, OpenListenSocket(sa, /*reuse_port=*/false));
      loops_[0]->set_listen_fd(fd);
      sockaddr_in bound;
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
          0) {
        return ErrnoStatus("getsockname", errno);
      }
      address_ = FormatAddr(bound);
      hand_off_ = n > 1;
    }

    for (auto& loop : loops_) {
      ZR_RETURN_IF_ERROR(loop->Init());
    }

    // Publish the server's counters through the process metrics registry
    // (the scrape plane): the merged set under zr_tcp_*, and for a
    // multi-loop server the same set per loop under zr_tcp_loop_*, so an
    // operator can see skew (see docs/OPERATIONS.md).
    metric_labels_ = obs::NewInstanceLabel() + ",addr=\"" + address_ + "\"";
    metrics_collector_ = obs::Registry::Global().RegisterCollector(
        [this](obs::Scrape* out) {
          out->AddCounters("zr_tcp_", metric_labels_, stats());
          out->samples.push_back(
              {"zr_tcp_open_sessions", metric_labels_, open_sessions()});
          if (loops_.size() > 1) {
            for (size_t i = 0; i < loops_.size(); ++i) {
              std::string loop_labels =
                  metric_labels_ + ",loop=\"" + std::to_string(i) + "\"";
              out->AddCounters("zr_tcp_loop_", loop_labels,
                               loops_[i]->shard_stats());
              out->samples.push_back(
                  {"zr_tcp_loop_open_sessions", loop_labels, loops_[i]->open()});
            }
          }
        });

    // Threads start last: every failure before this point unwinds with no
    // loop running (sockets close in the EventLoop destructors).
    for (auto& loop : loops_) loop->StartThread();
    return Status::OK();
  }

  void Stop() {
    if (!stop_.exchange(true)) {
      for (auto& loop : loops_) loop->Wake();
    }
    for (auto& loop : loops_) loop->Join();
  }

  /// Fan-out barrier: every loop is asked to drain, then the caller
  /// blocks until each live loop has closed its sessions (a loop that
  /// already exited has closed them on its way out).
  void DisconnectAll() {
    std::vector<uint64_t> targets(loops_.size());
    for (size_t i = 0; i < loops_.size(); ++i) {
      targets[i] = loops_[i]->RequestDrain();
    }
    MutexLock lock(drain_mu_);
    for (size_t i = 0; i < loops_.size(); ++i) {
      while (!loops_[i]->DrainReached(targets[i]) && !loops_[i]->stopped()) {
        drain_cv_.Wait(drain_mu_);
      }
    }
  }

  TcpServerStats stats() const {
    TcpServerStats merged;
    for (const auto& loop : loops_) merged += loop->shard_stats();
    return merged;
  }

  std::vector<TcpServerStats> per_loop_stats() const {
    std::vector<TcpServerStats> shards;
    shards.reserve(loops_.size());
    for (const auto& loop : loops_) shards.push_back(loop->shard_stats());
    return shards;
  }

  size_t num_loops() const { return loops_.size(); }

  size_t open_sessions() const {
    size_t open = 0;
    for (const auto& loop : loops_) open += loop->open();
    return open;
  }

  const std::string& address() const { return address_; }

 private:
  /// One accepted connection. `in` buffers unparsed input (in_pos marks
  /// the consumed prefix); `out` buffers unwritten responses. Owned by
  /// exactly one EventLoop; never visible to another thread.
  struct Session {
    std::string in;
    size_t in_pos = 0;
    std::string out;
    size_t out_pos = 0;
    bool want_read = true;         ///< read interest currently armed
    bool want_write = false;       ///< write interest currently armed
    bool paused = false;           ///< reads suspended by backpressure
    bool saw_eof = false;          ///< peer half-closed its send side
    bool close_after_flush = false;
    bool dead = false;

    size_t backlog() const { return out.size() - out_pos; }
  };

  /// One event-loop thread: an epoll instance, a wake pipe, and the
  /// sessions pinned to it. All session state — buffers, the
  /// deferred-close batch, backpressure bookkeeping — is loop-owned and
  /// only ever touched from Run()'s thread; the cross-thread surfaces are
  /// exactly the annotated inbox, the drain/stop counters (atomics) and
  /// the stats shard.
  class EventLoop {
   public:
    EventLoop(Impl* impl, size_t loop_id) : impl_(impl), loop_id_(loop_id) {}

    ~EventLoop() {
      if (listen_fd_ >= 0) ::close(listen_fd_);
      if (wake_read_ >= 0) ::close(wake_read_);
      if (wake_write_ >= 0) ::close(wake_write_);
      for (auto& [fd, session] : sessions_) {
        (void)session;
        ::close(fd);
      }
      sessions_.clear();
      // Handed-off connections the loop never got to adopt.
      MutexLock lock(inbox_mu_);
      for (int fd : inbox_) ::close(fd);
      inbox_.clear();
    }

    /// Hands the loop its listening socket (ownership included). Only
    /// before Init.
    void set_listen_fd(int fd) { listen_fd_ = fd; }

    Status Init() {
      int pipe_fds[2];
      if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
        return ErrnoStatus("pipe2", errno);
      }
      wake_read_ = pipe_fds[0];
      wake_write_ = pipe_fds[1];
      ZR_RETURN_IF_ERROR(epoll_.Init());
      ZR_RETURN_IF_ERROR(epoll_.Add(wake_read_));
      if (listen_fd_ >= 0) ZR_RETURN_IF_ERROR(epoll_.Add(listen_fd_));
      return Status::OK();
    }

    void StartThread() {
      thread_ = std::thread([this] { Run(); });
    }

    void Join() {
      if (thread_.joinable()) thread_.join();
    }

    void Wake() {
      char byte = 1;
      ssize_t ignored = ::write(wake_write_, &byte, 1);
      (void)ignored;  // pipe full == a wakeup is already pending
    }

    /// Acceptor-side hand-off: queues a freshly accepted fd for this loop
    /// to adopt. Ownership transfers with the call.
    void Deliver(int fd) {
      {
        MutexLock lock(inbox_mu_);
        inbox_.push_back(fd);
      }
      Wake();
    }

    /// Asks the loop to close every session it owns; returns the drain
    /// generation to pass to DrainReached.
    uint64_t RequestDrain() {
      uint64_t target = drain_seq_.fetch_add(1) + 1;
      Wake();
      return target;
    }

    bool DrainReached(uint64_t target) const {
      return drain_done_.load() >= target;
    }

    bool stopped() const { return stopped_.load(); }

    TcpServerStats shard_stats() const { return counters_.Snapshot(); }

    size_t open() const { return open_.load(); }

   private:
    void Run() {
      std::vector<Epoll::Event> events;
      std::vector<int> dead_fds;
      while (!impl_->stop_.load()) {
        if (!epoll_.Wait(&events).ok()) break;
        if (impl_->stop_.load()) break;
        dead_fds.clear();
        for (const Epoll::Event& event : events) {
          if (event.fd == wake_read_) {
            DrainWakePipe();
            continue;
          }
          if (event.fd == listen_fd_) {
            AcceptAll();
            continue;
          }
          auto it = sessions_.find(event.fd);
          if (it == sessions_.end() || it->second.dead) continue;
          Session* s = &it->second;
          if (event.readable || event.hangup) {
            HandleReadable(event.fd, s);
          } else if (event.writable) {
            Pump(event.fd, s);
          }
          if (s->dead) dead_fds.push_back(event.fd);
        }
        // Closes are deferred to the end of the batch so a recycled fd
        // can never alias a stale event within the same batch. The batch
        // is loop-owned: only this loop's events can name these fds, so
        // no other loop can recycle into it either.
        for (int fd : dead_fds) CloseSession(fd);
        // Adopt handed-off connections after the close batch: an adopted
        // fd number is live from here on and must not meet a stale event.
        AdoptInbox();
        uint64_t drain_target = drain_seq_.load();
        if (drain_done_.load() < drain_target) {
          std::vector<int> fds;
          fds.reserve(sessions_.size());
          for (const auto& [fd, session] : sessions_) {
            (void)session;
            fds.push_back(fd);
          }
          for (int fd : fds) CloseSession(fd);
          PublishDrain(drain_target);
        }
      }
      MarkStopped();
    }

    void DrainWakePipe() {
      char buf[256];
      while (::read(wake_read_, buf, sizeof(buf)) > 0) {
      }
    }

    /// Publishes a completed drain and pokes the DisconnectAll barrier.
    /// The store happens under the barrier mutex so a waiter can never
    /// miss the notify.
    void PublishDrain(uint64_t target) {
      {
        MutexLock lock(impl_->drain_mu_);
        drain_done_.store(target);
      }
      impl_->drain_cv_.NotifyAll();
    }

    /// Marks the loop as exited so DisconnectAll stops waiting on it.
    void MarkStopped() {
      {
        MutexLock lock(impl_->drain_mu_);
        stopped_.store(true);
      }
      impl_->drain_cv_.NotifyAll();
    }

    void AcceptAll() {
      for (;;) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          if (errno == EINTR) continue;
          if (errno == EMFILE || errno == ENFILE) {
            // Out of fds: the listener stays level-triggered-readable, so
            // returning immediately would busy-spin the loop. A bounded
            // sleep paces retries while existing sessions keep being
            // served on subsequent iterations.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
          break;  // EAGAIN (drained) or a transient accept error
        }
        SetNoDelay(fd);
        if (impl_->hand_off_) {
          EventLoop* target = impl_->NextLoop();
          if (target != this) {
            target->Deliver(fd);
            continue;
          }
        }
        InstallSession(fd);
      }
    }

    /// Installs an accepted (or adopted) connection into this loop. The
    /// owning loop counts the accept, so per-loop stats reflect session
    /// placement in every accept mode.
    void InstallSession(int fd) {
      if (!epoll_.Add(fd).ok()) {
        ::close(fd);
        return;
      }
      sessions_.emplace(fd, Session());
      counters_.Add<&TcpServerStats::connections_accepted>();
      open_.fetch_add(1);
    }

    void AdoptInbox() {
      std::vector<int> adopted;
      {
        MutexLock lock(inbox_mu_);
        adopted.swap(inbox_);
      }
      for (int fd : adopted) InstallSession(fd);
    }

    void CloseSession(int fd) {
      auto it = sessions_.find(fd);
      if (it == sessions_.end()) return;
      epoll_.Remove(fd);
      ::close(fd);
      sessions_.erase(it);
      counters_.Add<&TcpServerStats::connections_closed>();
      open_.fetch_sub(1);
    }

    /// (Re)arms epoll with the session's current interest: reads
    /// stay off while backpressure has the session paused, writes are on
    /// only while output is pending.
    void UpdateInterest(int fd, Session* s) {
      bool want_read = !s->paused && !s->saw_eof;
      bool want_write = s->backlog() > 0;
      if (want_read == s->want_read && want_write == s->want_write) return;
      s->want_read = want_read;
      s->want_write = want_write;
      (void)epoll_.Update(fd, want_read, want_write);
    }

    void HandleReadable(int fd, Session* s) {
      char buf[64 * 1024];
      for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
          s->in.append(buf, static_cast<size_t>(n));
          counters_.Add<&TcpServerStats::bytes_read>(
              static_cast<uint64_t>(n));
          if (static_cast<size_t>(n) < sizeof(buf)) break;
          continue;
        }
        if (n == 0) {
          // Peer half-closed. Complete frames already buffered (a
          // pipelining client may batch requests and shutdown its send
          // side) are still served; Pump decides below whether the close
          // was clean or tore a frame.
          s->saw_eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        s->dead = true;
        return;
      }
      Pump(fd, s);
    }

    /// Frame-length ceiling for one announcement: flagged frames may
    /// carry up to kMaxFrameExtOverhead extension bytes on top of the
    /// payload.
    size_t FrameLengthLimit(bool flagged) const {
      return impl_->max_frame_payload_ +
             (flagged ? kMaxFrameExtOverhead : 0);
    }

    /// True when a complete undispatched frame is buffered.
    bool HasCompleteFrame(const Session& s) const {
      if (s.in.size() - s.in_pos < kFrameHeaderBytes) return false;
      uint32_t raw = DecodeFrameLength(s.in.data() + s.in_pos);
      uint32_t length = raw & kFrameLengthMask;
      // An oversized announcement counts as actionable: dispatch rejects
      // it.
      if (length > FrameLengthLimit(raw & kFrameFlagExtension)) return true;
      return s.in.size() - s.in_pos >= kFrameHeaderBytes + length;
    }

    /// Dispatches buffered frames while the output backlog allows it.
    /// Returns true when at least one frame was consumed.
    bool ParseAvailableFrames(Session* s) {
      bool progress = false;
      while (!s->close_after_flush &&
             s->backlog() <= impl_->max_session_backlog_ &&
             s->in.size() - s->in_pos >= kFrameHeaderBytes) {
        uint32_t raw = DecodeFrameLength(s->in.data() + s->in_pos);
        uint32_t length = raw & kFrameLengthMask;
        bool flagged = (raw & kFrameFlagExtension) != 0;
        if (length > FrameLengthLimit(flagged)) {
          counters_.Add<&TcpServerStats::protocol_errors>();
          AppendResponse(s, ErrorFrame(Status::InvalidArgument(
                                "tcp: frame payload exceeds limit")));
          s->close_after_flush = true;
          progress = true;
          break;
        }
        if (s->in.size() - s->in_pos < kFrameHeaderBytes + length) break;
        std::string_view payload(s->in.data() + s->in_pos + kFrameHeaderBytes,
                                 length);
        obs::TraceContext ctx;
        bool frame_ok = true;
        if (flagged) {
          // Strips the extension block; a torn or malformed one is a
          // protocol error, handled exactly like an oversized frame.
          frame_ok = ConsumeFrameExtension(&payload, &ctx, nullptr) &&
                     payload.size() <= impl_->max_frame_payload_;
        }
        if (!frame_ok) {
          counters_.Add<&TcpServerStats::protocol_errors>();
          AppendResponse(s, ErrorFrame(Status::InvalidArgument(
                                "tcp: malformed frame extension")));
          s->close_after_flush = true;
          progress = true;
          break;
        }
        Dispatch(s, payload, ctx);
        s->in_pos += kFrameHeaderBytes + length;
        progress = true;
      }
      if (s->in_pos == s->in.size()) {
        s->in.clear();
        s->in_pos = 0;
      } else if (s->in_pos > (64u << 10)) {
        s->in.erase(0, s->in_pos);
        s->in_pos = 0;
      }
      return progress;
    }

    /// Drives one session as far as it can go right now: dispatch
    /// buffered frames (bounded by the output backlog — backpressure),
    /// flush output, repeat while flushing freed room for more
    /// dispatching, then settle the session's epoll interest and EOF
    /// fate.
    void Pump(int fd, Session* s) {
      for (;;) {
        bool progress = ParseAvailableFrames(s);
        FlushOutput(fd, s);
        if (s->dead) return;
        if (!progress) break;
      }
      // Backpressure: above the limit reads stay off until the backlog
      // drains (the kernel buffer then fills and the peer's sends block —
      // memory stays bounded end to end). Per-session and so per-loop:
      // one pipelining firehose pauses only itself.
      s->paused = s->backlog() > impl_->max_session_backlog_;
      if (s->saw_eof && !s->close_after_flush && !HasCompleteFrame(*s)) {
        if (s->in.size() != s->in_pos) {
          // The peer's close tore a frame (torn length prefix or
          // truncated payload).
          counters_.Add<&TcpServerStats::protocol_errors>();
          s->dead = true;
          return;
        }
        // Clean half-close on a frame boundary: deliver what is pending,
        // then close.
        s->close_after_flush = true;
        if (s->backlog() == 0) {
          s->dead = true;
          return;
        }
      }
      UpdateInterest(fd, s);
    }

    /// The answer to each request type: the backend serves the protocol
    /// (net::Serve), the server itself the control plane.
    template <WireRequest Request>
    StatusOr<typename Request::Response> Handle(const Request& request) {
      return Serve(*impl_->backend_, request);
    }

    StatusOr<PingResponse> Handle(const PingRequest& ping) {
      // The owning loop's id: the session-pinning witness (a client
      // pinging the same connection sees the same loop every time).
      return PingResponse{ping.token, impl_->config_.server_id(), loop_id_};
    }

    StatusOr<StatsResponse> Handle(const StatsRequest&) {
      const auto& source = impl_->config_.stats_source();
      if (!source) return Status::Unimplemented("tcp: server exports no stats");
      return source();
    }

    StatusOr<AclResponse> Handle(const AclRequest& request) {
      const auto& handler = impl_->config_.acl_handler();
      if (!handler) {
        return Status::Unimplemented("tcp: server accepts no ACL changes");
      }
      ZR_RETURN_IF_ERROR(handler(request));
      return AclResponse{};
    }

    /// The one dispatch path: parses the payload as the request its tag
    /// names, answers it, serializes the answer. Runs under the
    /// server-wide dispatch gate (reader for regular traffic, writer for
    /// ACL frames — see Dispatch).
    std::string ServeFrame(std::string_view payload, bool* parsed_ok) {
      std::string response;
      Messages::ForTag(TagOf(payload), [&]<typename M>(std::type_identity<M>) {
        if constexpr (WireRequest<M>) {
          StatusOr<M> request = Parse<M>(payload);
          *parsed_ok = request.ok();
          if (!request.ok()) {
            response = ErrorFrame(request.status());
            return;
          }
          auto answer = Handle(*request);
          response = answer.ok() ? Serialize(*answer)
                                 : ErrorFrame(answer.status());
        }
      });
      // Every encoding is at least its tag byte: empty means the tag names
      // no request.
      if (response.empty()) {
        response =
            ErrorFrame(Status::InvalidArgument("tcp: unknown message tag"));
      }
      return response;
    }

    void Dispatch(Session* s, std::string_view payload,
                  const obs::TraceContext& ctx) {
      bool parsed_ok = false;
      // A traced request: serve under its trace context with a span sink
      // installed, so every stage the dispatch passes through (index
      // serve, WAL append, ...) collects here instead of this process's
      // tracer — the spans ride back to the requesting process in the
      // response frame's extension.
      obs::SpanCollector collected;
      std::optional<obs::ScopedTrace> scoped_trace;
      std::optional<obs::ScopedSpanSink> scoped_sink;
      uint64_t serve_start = 0;
      if (ctx.active()) {
        scoped_trace.emplace(ctx);
        scoped_sink.emplace(&collected);
        serve_start = obs::MonotonicNowNs();
      }
      std::string response;
      if (TagOf(payload) == MessageTag::kAclRequest) {
        // One loop used to serialize ACL mutations against all traffic
        // for free; N loops must buy that quiescence explicitly. The
        // writer side empties every loop's read-locked dispatches before
        // the ACL handler runs, and admits none until it returns.
        WriterMutexLock gate(impl_->dispatch_gate_);
        response = ServeFrame(payload, &parsed_ok);
      } else {
        ReaderMutexLock gate(impl_->dispatch_gate_);
        response = ServeFrame(payload, &parsed_ok);
      }
      if (parsed_ok) {
        counters_.Add<&TcpServerStats::frames_served>();
      } else {
        // An unparseable or non-request frame means the peer is not a
        // well-behaved client; answer with the error and drop it.
        counters_.Add<&TcpServerStats::protocol_errors>();
        s->close_after_flush = true;
      }
      if (response.size() > impl_->max_frame_payload_) {
        // The client would reject (and tear its session down on) a frame
        // above the limit; tell it why instead of transmitting megabytes
        // it cannot accept. Mirrors the client-side send check.
        response = ErrorFrame(Status::InvalidArgument(
            "tcp: response exceeds frame payload limit"));
      }
      if (ctx.active()) {
        collected.Add({ctx.trace_id, obs::Stage::kShardServe,
                       obs::MonotonicNowNs() - serve_start,
                       static_cast<uint64_t>(TagOf(payload))});
        AppendResponseWithSpans(s, response, collected.spans());
      } else {
        AppendResponse(s, response);
      }
    }

    void AppendResponse(Session* s, std::string_view payload) {
      AppendFrameHeader(&s->out, static_cast<uint32_t>(payload.size()));
      s->out.append(payload.data(), payload.size());
    }

    /// Frames a response to a traced request: the collected spans travel
    /// in the extension block. Falls back to plain framing when the
    /// extension cannot be expressed.
    void AppendResponseWithSpans(Session* s, std::string_view payload,
                                 const std::vector<obs::SpanRecord>& spans) {
      std::string ext = EncodeSpanReportExt(spans);
      if (!AppendExtendedFrameHeader(&s->out, ext, payload.size())) {
        AppendResponse(s, payload);
        return;
      }
      s->out.append(payload.data(), payload.size());
    }

    /// Writes as much pending output as the socket accepts. Epoll
    /// interest is settled afterwards by Pump's UpdateInterest.
    void FlushOutput(int fd, Session* s) {
      while (s->out_pos < s->out.size()) {
        // MSG_NOSIGNAL: a peer that vanished mid-response must surface as
        // EPIPE, not kill the process.
        ssize_t n = ::send(fd, s->out.data() + s->out_pos,
                           s->out.size() - s->out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          s->out_pos += static_cast<size_t>(n);
          counters_.Add<&TcpServerStats::bytes_written>(
              static_cast<uint64_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        s->dead = true;
        return;
      }
      s->out.clear();
      s->out_pos = 0;
      if (s->close_after_flush) s->dead = true;
    }

    Impl* const impl_;
    const size_t loop_id_;

    // --- Loop-owned state: touched only from Run()'s thread (the
    // listen/wake fds are set before the thread starts and read-only
    // after). Sessions are pinned here for life, so nothing below ever
    // needs a lock.
    int listen_fd_ = -1;
    int wake_read_ = -1;
    int wake_write_ = -1;
    Epoll epoll_;
    std::unordered_map<int, Session> sessions_;
    std::thread thread_;

    // --- Cross-thread: the acceptor's hand-off inbox. Fds parked here
    // are owned by the loop from Deliver on (closed by the destructor if
    // never adopted).
    mutable Mutex inbox_mu_;
    std::vector<int> inbox_ ZR_GUARDED_BY(inbox_mu_);

    // --- Cross-thread: drain barrier generations (DisconnectAll) and the
    // exit flag. Atomics; the stores pair with impl_->drain_mu_ +
    // drain_cv_ purely for wakeup, not for data protection.
    std::atomic<uint64_t> drain_seq_{0};
    std::atomic<uint64_t> drain_done_{0};
    std::atomic<bool> stopped_{false};

    // --- Cross-thread: this loop's stats shard (merged by Impl::stats).
    obs::AtomicCounters<TcpServerStats> counters_;
    std::atomic<size_t> open_{0};
  };

  /// Round-robin loop choice for hand-off accepts (only the acceptor
  /// thread calls this, but an atomic keeps it self-contained).
  EventLoop* NextLoop() {
    size_t i = next_loop_.fetch_add(1) % loops_.size();
    return loops_[i].get();
  }

  ZerberService* backend_;
  ServerConfig config_;
  std::string address_;
  /// `id="<n>",addr="<address_>"`, set with the collector.
  std::string metric_labels_;
  size_t max_frame_payload_ = kDefaultMaxFramePayload;
  size_t max_session_backlog_ = kDefaultMaxFramePayload;
  bool hand_off_ = false;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};
  std::atomic<bool> stop_{false};

  /// The quiescence gate: every dispatch holds it shared; an ACL frame
  /// holds it exclusively, so the durable backend's "requires quiescence"
  /// ACL surface sees the same no-concurrent-requests world one loop gave
  /// it. Uncontended shared acquisition is nanoseconds against a dispatch
  /// that parses, serves and serializes.
  SharedMutex dispatch_gate_;

  /// DisconnectAll's barrier: waiters sleep here; loops notify after
  /// publishing drain progress or exiting.
  Mutex drain_mu_;
  CondVar drain_cv_;

  // Last member: unregistered first on destruction, and RemoveCollector
  // blocks out in-flight scrapes, so a scrape can never read a dead Impl.
  obs::CollectorHandle metrics_collector_;
};

TcpServer::TcpServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {
  address_ = impl_->address();
}

TcpServer::~TcpServer() { Stop(); }

StatusOr<std::unique_ptr<TcpServer>> TcpServer::Start(ZerberService* backend,
                                                      ServerConfig config) {
  if (backend == nullptr) {
    return Status::InvalidArgument("tcp: server needs a backend");
  }
  auto impl = std::make_unique<Impl>(backend, std::move(config));
  ZR_RETURN_IF_ERROR(impl->Init());
  return std::unique_ptr<TcpServer>(new TcpServer(std::move(impl)));
}

StatusOr<std::unique_ptr<TcpServer>> TcpServer::Start(ZerberService* backend) {
  return Start(backend, ServerConfig());
}

void TcpServer::Stop() { impl_->Stop(); }
void TcpServer::DisconnectAll() { impl_->DisconnectAll(); }
TcpServerStats TcpServer::stats() const { return impl_->stats(); }
std::vector<TcpServerStats> TcpServer::per_loop_stats() const {
  return impl_->per_loop_stats();
}
size_t TcpServer::num_loops() const { return impl_->num_loops(); }
size_t TcpServer::open_sessions() const { return impl_->open_sessions(); }

// ---------------------------------------------------------------------------
// TcpSession
// ---------------------------------------------------------------------------

TcpSession::TcpSession(std::string connect_addr)
    : TcpSession(std::move(connect_addr), Options()) {}

TcpSession::TcpSession(std::string connect_addr, Options options)
    : connect_addr_(std::move(connect_addr)), options_(options) {
  // 31-bit length field (see TcpServer::Impl::Init).
  options_.max_frame_payload =
      std::min<size_t>(options_.max_frame_payload, kFrameLengthMask);
}

TcpSession::~TcpSession() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpSession::MarkBroken() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpSession::Disconnect() { MarkBroken(); }

Status TcpSession::Connect() {
  if (fd_ >= 0) return Status::OK();
  sockaddr_in sa;
  ZR_RETURN_IF_ERROR(ParseAddr(connect_addr_, &sa));
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  if (options_.deadlines.connect_ms > 0) {
    // Non-blocking connect + poll: a blackholed address (no RST, no SYN-ACK)
    // fails after the deadline instead of the kernel's minutes-long SYN
    // retransmit budget.
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      int err = errno;
      ::close(fd);
      return ErrnoStatus("fcntl", err);
    }
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
      // EINTR on a non-blocking connect means the attempt proceeds
      // asynchronously, exactly like EINPROGRESS.
      int err = errno;
      ::close(fd);
      return ErrnoStatus("connect", err);
    }
    if (rc != 0) {
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.deadlines.connect_ms);
      pollfd p;
      p.fd = fd;
      p.events = POLLOUT;
      for (;;) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        if (left <= 0) {
          ::close(fd);
          return Status::Internal("tcp: connect timed out");
        }
        p.revents = 0;
        int pn = ::poll(&p, 1, static_cast<int>(left));
        if (pn < 0 && errno == EINTR) continue;
        if (pn < 0) {
          int err = errno;
          ::close(fd);
          return ErrnoStatus("poll", err);
        }
        if (pn == 0) {
          ::close(fd);
          return Status::Internal("tcp: connect timed out");
        }
        break;
      }
      int so_error = 0;
      socklen_t so_len = sizeof(so_error);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) != 0) {
        int err = errno;
        ::close(fd);
        return ErrnoStatus("getsockopt", err);
      }
      if (so_error != 0) {
        ::close(fd);
        return ErrnoStatus("connect", so_error);
      }
    }
    if (::fcntl(fd, F_SETFL, flags) != 0) {  // restore blocking mode
      int err = errno;
      ::close(fd);
      return ErrnoStatus("fcntl", err);
    }
  } else {
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      int err = errno;
      ::close(fd);
      return ErrnoStatus("connect", err);
    }
  }
  SetNoDelay(fd);
  if (options_.deadlines.recv_ms > 0) {
    timeval tv;
    tv.tv_sec = static_cast<time_t>(options_.deadlines.recv_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((options_.deadlines.recv_ms % 1000) *
                                          1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  fd_ = fd;
  if (ever_connected_) ++socket_stats_.reconnects;
  ever_connected_ = true;
  return Status::OK();
}

Status TcpSession::SendFrame(std::string_view payload) {
  if (payload.size() > options_.max_frame_payload) {
    return Status::InvalidArgument("tcp: request exceeds frame payload limit");
  }
  ZR_RETURN_IF_ERROR(Connect());
  // An active trace context rides along as a frame extension. `header`
  // then carries the flagged length, the ext_len byte and the extension
  // block, so the gathered send below needs no other change. Untraced
  // sends build exactly the 4 plain header bytes — byte-identical to the
  // extension-less protocol.
  std::string header;
  obs::TraceContext ctx = obs::CurrentTrace();
  bool extended = false;
  if (ctx.active()) {
    extended = AppendExtendedFrameHeader(&header, EncodeTraceContextExt(ctx),
                                         payload.size());
  }
  if (!extended) {
    AppendFrameHeader(&header, static_cast<uint32_t>(payload.size()));
  }
  // One gathered sendmsg instead of a joined copy or two sends: no
  // payload copy for megabyte frames, and with TCP_NODELAY the header
  // never goes out as its own segment. MSG_NOSIGNAL: a dead connection
  // is an error status (and a reconnect opportunity), not a SIGPIPE.
  iovec iov[2];
  iov[0] = {header.data(), header.size()};
  iov[1] = {const_cast<char*>(payload.data()), payload.size()};
  msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  size_t remaining = header.size() + payload.size();
  while (remaining > 0) {
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      MarkBroken();
      return ErrnoStatus("write", err);
    }
    remaining -= static_cast<size_t>(n);
    size_t advance = static_cast<size_t>(n);
    while (advance > 0 && msg.msg_iovlen > 0) {
      if (advance >= msg.msg_iov[0].iov_len) {
        advance -= msg.msg_iov[0].iov_len;
        ++msg.msg_iov;
        --msg.msg_iovlen;
      } else {
        msg.msg_iov[0].iov_base =
            static_cast<char*>(msg.msg_iov[0].iov_base) + advance;
        msg.msg_iov[0].iov_len -= advance;
        advance = 0;
      }
    }
  }
  socket_stats_.bytes_up += header.size() + payload.size();
  socket_stats_.ext_bytes_up += header.size() - kFrameHeaderBytes;
  ++socket_stats_.frames_up;
  if (wire_tap_ != nullptr) {
    wire_tap_->OnFrame(wire_tap_stream_, /*client_to_server=*/true, payload,
                       header.size() + payload.size());
  }
  return Status::OK();
}

Status TcpSession::RecvFrame(std::string* payload) {
  if (fd_ < 0) return Status::Internal("tcp: receive on a broken session");
  auto read_exactly = [this](char* dst, size_t size) -> Status {
    size_t done = 0;
    while (done < size) {
      ssize_t n = ::read(fd_, dst + done, size - done);
      if (n > 0) {
        done += static_cast<size_t>(n);
        continue;
      }
      if (n == 0) {
        MarkBroken();
        return Status::Internal("tcp: peer closed the connection");
      }
      if (errno == EINTR) continue;
      int err = errno;
      MarkBroken();
      if (err == EAGAIN || err == EWOULDBLOCK) {
        return Status::Internal("tcp: receive timed out");
      }
      return ErrnoStatus("read", err);
    }
    return Status::OK();
  };

  char header[kFrameHeaderBytes];
  ZR_RETURN_IF_ERROR(read_exactly(header, kFrameHeaderBytes));
  uint32_t raw = DecodeFrameLength(header);
  uint32_t length = raw & kFrameLengthMask;
  bool flagged = (raw & kFrameFlagExtension) != 0;
  size_t limit = options_.max_frame_payload +
                 (flagged ? kMaxFrameExtOverhead : 0);
  if (length > limit) {
    MarkBroken();
    return Status::Corruption("tcp: response frame exceeds payload limit");
  }
  payload->resize(length);
  if (length > 0) ZR_RETURN_IF_ERROR(read_exactly(payload->data(), length));
  socket_stats_.bytes_down += kFrameHeaderBytes + length;
  ++socket_stats_.frames_down;
  response_spans_.clear();
  if (flagged) {
    // A span report from the server (response to a traced request): strip
    // it off the payload and expose it via response_spans(). A torn or
    // malformed extension is as fatal as a corrupt length prefix.
    std::string_view body(*payload);
    if (!ConsumeFrameExtension(&body, nullptr, &response_spans_) ||
        body.size() > options_.max_frame_payload) {
      MarkBroken();
      return Status::Corruption("tcp: malformed response frame extension");
    }
    socket_stats_.ext_bytes_down += length - body.size();
    payload->erase(0, length - body.size());
  }
  if (wire_tap_ != nullptr) {
    // Post-strip payload, full on-socket frame size — summing frame_bytes
    // over a session's observed frames reproduces bytes_down exactly.
    wire_tap_->OnFrame(wire_tap_stream_, /*client_to_server=*/false, *payload,
                       kFrameHeaderBytes + length);
  }
  return Status::OK();
}

Status TcpSession::Call(std::string_view request, std::string* response) {
  ZR_RETURN_IF_ERROR(SendFrame(request));
  return RecvFrame(response);
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(std::string connect_addr,
                           TcpSession::Options options)
    : session_(std::move(connect_addr), options) {}

void TcpTransport::ResetStats() {
  Transport::ResetStats();
  session_.ResetSocketStats();
}

Status TcpTransport::ExchangeFrames(const std::string& request_wire,
                                    std::string* response_wire) {
  Status sent = session_.SendFrame(request_wire);
  if (!sent.ok()) {
    if (sent.IsInvalidArgument()) return sent;  // oversized; not a dead link
    // The connection died before anything of this request reached the
    // server (a failed send never delivers a partial frame the server
    // would act on), so one reconnect-and-resend is safe for every
    // message type.
    ZR_RETURN_IF_ERROR(session_.Connect());
    ZR_RETURN_IF_ERROR(session_.SendFrame(request_wire));
  }
  return session_.RecvFrame(response_wire);
}

void RecordHop(const TcpSession& session, std::string_view request,
               uint64_t start_ns) {
  if (!obs::CurrentTrace().active()) return;
  obs::RecordSpan(obs::Stage::kTransport, obs::MonotonicNowNs() - start_ns,
                  static_cast<uint64_t>(TagOf(request)));
  for (const obs::SpanRecord& span : session.response_spans()) {
    obs::RecordSpan(span.stage, span.duration_ns, span.detail);
  }
}

template <WireRequest Request>
StatusOr<typename Request::Response> TcpTransport::Exchange(
    const Request& request) {
  std::string wire_request = Serialize(request);
  if (wire_request.size() != WireSize(request)) {
    return Status::Internal(
        "wire-size accounting drift in message tag " +
        std::to_string(static_cast<int>(Request::kWireTag)));
  }
  std::string wire_response;
  const uint64_t start =
      obs::CurrentTrace().active() ? obs::MonotonicNowNs() : 0;
  ZR_RETURN_IF_ERROR(ExchangeFrames(wire_request, &wire_response));
  RecordHop(session_, wire_request, start);
  auto response =
      DecodeResponse<typename Request::Response>(&session_, wire_response);
  if (session_.broken()) return response;  // did not parse; not accounted
  Account(wire_request.size(), wire_response.size());
  return response;
}

StatusOr<InsertResponse> TcpTransport::Insert(const InsertRequest& request) {
  return Exchange(request);
}

StatusOr<QueryResponse> TcpTransport::Fetch(const QueryRequest& request) {
  return Exchange(request);
}

StatusOr<DeleteResponse> TcpTransport::Delete(const DeleteRequest& request) {
  return Exchange(request);
}

StatusOr<MultiFetchResponse> TcpTransport::MultiFetch(
    const MultiFetchRequest& request) {
  return Exchange(request);
}

}  // namespace zr::net
