#include "timed_service.h"

#include <optional>

#include "obs/trace.h"

namespace zr::perfbench {

template <typename Call>
auto TimedService::Timed(Exchange exchange, const Call& call) {
  const obs::TraceContext ctx = obs::CurrentTrace();
  if (!ctx.active()) return call();
  Span span;
  span.trace_id = ctx.trace_id;
  span.span_id = log_->NewSpanId();
  // The serving side learns its parent (the client exchange) from the
  // context that crossed the wire with the request.
  span.parent_id = ctx.span_id;
  span.kind = kind_;
  span.cls = static_cast<uint8_t>(exchange);
  // A client exchange becomes the parent of whatever the call reaches: the
  // transport sends this context along with the request frame.
  std::optional<obs::ScopedTrace> as_parent;
  if (kind_ == SpanKind::kExchange) {
    as_parent.emplace(obs::TraceContext{ctx.trace_id, span.span_id});
  }
  span.start_ns = obs::MonotonicNowNs();
  auto result = call();
  span.end_ns = obs::MonotonicNowNs();
  log_->Add(span);
  return result;
}

StatusOr<net::InsertResponse> TimedService::Insert(
    const net::InsertRequest& request) {
  return Timed(Exchange::kInsert, [&] { return inner_->Insert(request); });
}

StatusOr<net::QueryResponse> TimedService::Fetch(
    const net::QueryRequest& request) {
  return Timed(Exchange::kFetch, [&] { return inner_->Fetch(request); });
}

StatusOr<net::MultiFetchResponse> TimedService::MultiFetch(
    const net::MultiFetchRequest& request) {
  return Timed(Exchange::kMultiFetch,
               [&] { return inner_->MultiFetch(request); });
}

StatusOr<net::DeleteResponse> TimedService::Delete(
    const net::DeleteRequest& request) {
  return Timed(Exchange::kDelete, [&] { return inner_->Delete(request); });
}

}  // namespace zr::perfbench
