// Per-request tracing: trace contexts, per-stage spans, and the process
// tracer the load report drains.
//
// A TraceContext is two 64-bit ids. The load driver derives trace ids
// deterministically from the request stream (seed × worker × op index via
// DeriveTraceId), installs the context thread-locally around a sampled op
// (ScopedTrace), and every instrumented stage the request passes through —
// client seal, transport exchange, router fanout, shard serve, index
// serve, WAL append — calls RecordSpan with its measured duration. When no
// trace is active RecordSpan is a thread-local read and a branch: the
// untraced hot path stays metric-free.
//
// Crossing the wire: net::TcpSession attaches the current context to
// outgoing frames as an optional frame extension (see net/tcp.h), the
// server installs it around dispatch with a ScopedSpanSink so the stages
// it runs record into a per-request SpanCollector instead of the server's
// tracer, and the collected spans ride back in the response frame's
// extension to be recorded into the *client* process tracer under the
// originating trace id. The report therefore sees one flat span list per
// trace id spanning both processes.
//
// Span payloads are numeric only — stage, duration, and a uint64 detail
// (list id, handle, shard index, wire tag). Never terms, never plaintext:
// the sealed-telemetry invariant, linted by tools/check_sealed.py.

#ifndef ZERBERR_OBS_TRACE_H_
#define ZERBERR_OBS_TRACE_H_

#include <cstdint>
#include <vector>

#include "util/mutex.h"

namespace zr::obs {

/// Pipeline stages a span can attribute time to. Wire-stable: the byte
/// values travel in the frame extension's span report.
enum class Stage : uint8_t {
  kClientSeal = 1,    // SealPostingElement on the client
  kClientOp = 2,      // the whole client-side operation
  kTransport = 3,     // one wire exchange (send + recv)
  kRouterFanout = 4,  // router-side shard call (detail = shard index)
  kShardServe = 5,    // shard-server dispatch of one frame
  kIndexServe = 6,    // IndexServer op proper (detail = list id)
  kWalAppend = 7,     // durable-store WAL append (detail = list id)
};

inline constexpr size_t kNumStages = 7;

/// Lowercase stable name ("client_seal", ...), or "unknown".
const char* StageName(Stage stage);

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = no trace
  uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

struct SpanRecord {
  uint64_t trace_id = 0;
  Stage stage = Stage::kClientOp;
  uint64_t duration_ns = 0;
  uint64_t detail = 0;  // list id / handle / shard index / wire tag — only
                        // ever numeric ids, never plaintext

  /// The span-report encoding (net/tcp.h): stage byte, varint duration,
  /// varint detail. The trace id stays off the wire: the receiver owns the
  /// context.
  static void Fields(auto& s, auto&& f) {
    f(s.stage);
    f(s.duration_ns);
    f(s.detail);
  }

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// The calling thread's current trace context (inactive when none).
TraceContext CurrentTrace();

/// Installs `ctx` as the thread's current trace context for the scope;
/// restores the previous context on destruction. Nestable.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceContext ctx);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceContext prev_;
};

/// Per-request span accumulator for the server-side dispatch path: spans
/// recorded while a ScopedSpanSink points here are returned in the
/// response frame instead of entering the process tracer. Single-threaded
/// by construction (one per in-flight dispatch, on the dispatch thread).
class SpanCollector {
 public:
  void Add(const SpanRecord& span) { spans_.push_back(span); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

/// Redirects this thread's RecordSpan calls into `collector` for the
/// scope; restores the previous sink on destruction.
class ScopedSpanSink {
 public:
  explicit ScopedSpanSink(SpanCollector* collector);
  ~ScopedSpanSink();
  ScopedSpanSink(const ScopedSpanSink&) = delete;
  ScopedSpanSink& operator=(const ScopedSpanSink&) = delete;

 private:
  SpanCollector* prev_;
};

/// Records a completed stage for the current trace. No-op when no trace is
/// active. Routed to the thread's SpanCollector when one is installed,
/// else to Tracer::Global().
void RecordSpan(Stage stage, uint64_t duration_ns, uint64_t detail = 0);

/// Steady-clock nanoseconds, for span timing at instrumentation sites that
/// have no injectable clock.
uint64_t MonotonicNowNs();

/// Bounded ring of completed spans. Writers take a short lock (tracing is
/// sampled; this is not the metrics hot path); Drain returns the buffered
/// spans in record order and clears the ring. When full, the oldest spans
/// are overwritten and `dropped` counts them.
class Tracer {
 public:
  static constexpr size_t kCapacity = 64 * 1024;

  static Tracer& Global();

  void Record(const SpanRecord& span);
  std::vector<SpanRecord> Drain();
  uint64_t dropped() const;

 private:
  mutable Mutex mu_;
  std::vector<SpanRecord> ring_ ZR_GUARDED_BY(mu_);
  size_t next_ ZR_GUARDED_BY(mu_) = 0;  // insertion point once ring is full
  bool wrapped_ ZR_GUARDED_BY(mu_) = false;
  uint64_t dropped_ ZR_GUARDED_BY(mu_) = 0;
};

/// Deterministic nonzero trace id for op `op_index` of worker `worker`
/// under `seed` — a SplitMix64-style mix of the three, so fixed-seed runs
/// trace identical ops with identical ids.
uint64_t DeriveTraceId(uint64_t seed, uint64_t worker, uint64_t op_index);

}  // namespace zr::obs

#endif  // ZERBERR_OBS_TRACE_H_
