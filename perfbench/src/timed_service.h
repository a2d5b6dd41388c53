// The benchmark's ZerberService decorator: times every traced call it
// forwards and records it as a span. The traced run puts one in front of
// each client's transport (kExchange) and one between the serving layer
// and the backend (kDispatch); untraced calls pass straight through, and
// the untraced run installs no decorator at all.

#ifndef ZERBERR_PERFBENCH_TIMED_SERVICE_H_
#define ZERBERR_PERFBENCH_TIMED_SERVICE_H_

#include "net/service.h"
#include "spans.h"

namespace zr::perfbench {

class TimedService final : public net::ZerberService {
 public:
  /// `inner` and `log` are borrowed and must outlive the decorator.
  /// `kind` is kExchange (client side) or kDispatch (serving side).
  TimedService(net::ZerberService* inner, SpanKind kind, SpanLog* log)
      : inner_(inner), kind_(kind), log_(log) {}

  StatusOr<net::InsertResponse> Insert(
      const net::InsertRequest& request) override;
  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest& request) override;
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override;
  StatusOr<net::DeleteResponse> Delete(
      const net::DeleteRequest& request) override;

 private:
  template <typename Call>
  auto Timed(Exchange exchange, const Call& call);

  net::ZerberService* inner_;
  SpanKind kind_;
  SpanLog* log_;
};

}  // namespace zr::perfbench

#endif  // ZERBERR_PERFBENCH_TIMED_SERVICE_H_
