#include "obs/trace.h"

#include <chrono>

namespace zr::obs {

namespace {

thread_local TraceContext tls_trace;
thread_local SpanCollector* tls_sink = nullptr;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kClientSeal:
      return "client_seal";
    case Stage::kClientOp:
      return "client_op";
    case Stage::kTransport:
      return "transport";
    case Stage::kRouterFanout:
      return "router_fanout";
    case Stage::kShardServe:
      return "shard_serve";
    case Stage::kIndexServe:
      return "index_serve";
    case Stage::kWalAppend:
      return "wal_append";
  }
  return "unknown";
}

TraceContext CurrentTrace() { return tls_trace; }

ScopedTrace::ScopedTrace(TraceContext ctx) : prev_(tls_trace) {
  tls_trace = ctx;
}

ScopedTrace::~ScopedTrace() { tls_trace = prev_; }

ScopedSpanSink::ScopedSpanSink(SpanCollector* collector) : prev_(tls_sink) {
  tls_sink = collector;
}

ScopedSpanSink::~ScopedSpanSink() { tls_sink = prev_; }

void RecordSpan(Stage stage, uint64_t duration_ns, uint64_t detail) {
  if (!tls_trace.active()) return;
  SpanRecord span{tls_trace.trace_id, stage, duration_ns, detail};
  if (tls_sink != nullptr) {
    tls_sink->Add(span);
  } else {
    Tracer::Global().Record(span);
  }
}

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(const SpanRecord& span) {
  MutexLock lock(mu_);
  if (ring_.size() < kCapacity && !wrapped_) {
    ring_.push_back(span);
    return;
  }
  wrapped_ = true;
  ring_[next_] = span;
  next_ = (next_ + 1) % ring_.size();
  ++dropped_;
}

std::vector<SpanRecord> Tracer::Drain() {
  MutexLock lock(mu_);
  std::vector<SpanRecord> out;
  if (wrapped_) {
    // Oldest surviving span first: the ring wrapped at `next_`.
    out.reserve(ring_.size());
    out.insert(out.end(), ring_.begin() + static_cast<long>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<long>(next_));
  } else {
    out = std::move(ring_);
  }
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  return out;
}

uint64_t Tracer::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

uint64_t DeriveTraceId(uint64_t seed, uint64_t worker, uint64_t op_index) {
  uint64_t id = SplitMix64(SplitMix64(seed ^ (worker + 1) * 0xd6e8feb86659fd93ULL) ^
                           op_index);
  return id == 0 ? 1 : id;
}

}  // namespace zr::obs
