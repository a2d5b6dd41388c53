// Spans the benchmark records around its calls into each layer, plus the
// program's own spans (obs::Tracer) drained at the end of a traced window.
//
// The benchmark's spans carry start, end, parent and trace id on one
// steady clock: the client op (root), each client exchange (child of the
// op) and each backend dispatch (child of the exchange; the server side
// learns its parent from the trace context that crossed the wire). The
// program's spans carry only a duration and a numeric detail, so they are
// kept as they come. Everything stays in memory until the run writes it
// out.

#ifndef ZERBERR_PERFBENCH_SPANS_H_
#define ZERBERR_PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/mutex.h"
#include "util/status.h"

namespace zr::perfbench {

/// What a benchmark span times.
enum class SpanKind : uint8_t {
  kOp,        ///< one client op, from start to result (root)
  kExchange,  ///< one client transport call (child of kOp)
  kDispatch,  ///< one backend call on the serving side (child of kExchange)
};

/// The four message exchanges of the ZerberService API.
enum class Exchange : uint8_t { kFetch, kMultiFetch, kInsert, kDelete };
inline constexpr size_t kNumExchanges = 4;
const char* ExchangeName(Exchange e);

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 for a root
  SpanKind kind = SpanKind::kOp;
  uint8_t cls = 0;  ///< op class (kOp) or Exchange (kExchange, kDispatch)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t DurationNs() const { return end_ns - start_ns; }
};

/// Thread-safe in-memory span store. Only sampled ops record, so one lock
/// is cheap enough.
class SpanLog {
 public:
  /// A fresh span id (never 0).
  uint64_t NewSpanId() { return next_id_.fetch_add(1) + 1; }

  void Add(const Span& span);

  /// Moves out everything recorded so far.
  std::vector<Span> Take();

 private:
  std::atomic<uint64_t> next_id_{0};
  Mutex mu_;
  std::vector<Span> spans_ ZR_GUARDED_BY(mu_);
};

/// Writes both span sets as JSON lines to `path`.
Status WriteSpans(const std::string& path, const std::vector<Span>& spans,
                  const std::vector<obs::SpanRecord>& program_spans,
                  const char* const* op_class_names);

}  // namespace zr::perfbench

#endif  // ZERBERR_PERFBENCH_SPANS_H_
