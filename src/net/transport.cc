#include "net/transport.h"

#include <string>

#include "net/tcp.h"

namespace zr::net {

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDirect: return "direct";
    case TransportKind::kTcp: return "tcp";
  }
  return "unknown";
}

StatusOr<TransportKind> ParseTransportKind(std::string_view name) {
  if (name == "direct") return TransportKind::kDirect;
  if (name == "tcp") return TransportKind::kTcp;
  return Status::InvalidArgument("unknown transport '" + std::string(name) +
                                 "' (want direct|tcp)");
}

void Transport::Account(uint64_t up, uint64_t down) {
  ++stats_.exchanges;
  stats_.bytes_up += up;
  stats_.bytes_down += down;
}

// ---------------------------------------------------------------------------
// DirectTransport: pass-through; accounts the analytic wire sizes.
// ---------------------------------------------------------------------------

// gcc's -Wmaybe-uninitialized false-positives on the StatusOr/std::optional
// temporaries of the Exchange template at -O1 under the sanitizers (the
// optional's engaged flag is always set before any read). Suppressed only
// around the template body, and only for gcc — clang does not know this
// warning group.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

template <WireRequest Request>
StatusOr<typename Request::Response> DirectTransport::Exchange(
    const Request& request) {
  auto served = Serve(*backend_, request);
  if (!served.ok()) {
    Account(WireSize(request), WireSize(ErrorResponse::Of(served.status())));
    return served.status();
  }
  // What the wire parser records: the response's size and each nested
  // response's own (per-list accounting).
  RecordWireSizes(*served);
  Account(WireSize(request), served->wire_size);
  return served;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

StatusOr<InsertResponse> DirectTransport::Insert(const InsertRequest& request) {
  return Exchange(request);
}

StatusOr<QueryResponse> DirectTransport::Fetch(const QueryRequest& request) {
  return Exchange(request);
}

StatusOr<MultiFetchResponse> DirectTransport::MultiFetch(
    const MultiFetchRequest& request) {
  return Exchange(request);
}

StatusOr<DeleteResponse> DirectTransport::Delete(const DeleteRequest& request) {
  return Exchange(request);
}

std::unique_ptr<Transport> MakeTransport(TransportKind kind,
                                         ZerberService* backend,
                                         const std::string& connect_addr) {
  switch (kind) {
    case TransportKind::kDirect:
      return std::make_unique<DirectTransport>(backend);
    case TransportKind::kTcp:
      if (connect_addr.empty()) return nullptr;
      return std::make_unique<TcpTransport>(connect_addr);
  }
  return nullptr;
}

}  // namespace zr::net
