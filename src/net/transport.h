// Transports: how typed ZerberService exchanges travel between a client
// and a backend service.
//
// A Transport is itself a ZerberService (a client-side stub), so clients
// are constructed against `ZerberService&` and never know whether their
// requests cross a wire. Two implementations:
//
//  * DirectTransport — in-process pass-through, zero-copy. Byte accounting
//    uses the analytic WireSize (net/messages.h), so traces report exactly
//    what a wire transport would transfer without paying for
//    serialization.
//    Use in benches measuring CPU/protocol behavior.
//
//  * TcpTransport (net/tcp.h) — serializes every request and response
//    through the net/messages wire format and moves it across a socket.
//    Byte counts come from the real serialized messages; they equal
//    Direct's analytic sizes message for message (integration_tcp_test).
//
// Both account into the same TransportStats, which the Section 6.6 link
// model prices (net::TransferSeconds in net/bandwidth.h).

#ifndef ZERBERR_NET_TRANSPORT_H_
#define ZERBERR_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "net/service.h"
#include "obs/counter_set.h"

namespace zr::net {

/// Which transport a deployment routes its protocol through.
enum class TransportKind {
  kDirect,
  kTcp,
};

/// "direct" / "tcp" (for banners, flags and reports).
const char* TransportKindName(TransportKind kind);

/// Inverse of TransportKindName; Status on an unknown name.
StatusOr<TransportKind> ParseTransportKind(std::string_view name);

/// Cumulative traffic counters of one transport (a counter set,
/// obs/counter_set.h): completed request/response exchanges (round trips),
/// bytes client -> server, and bytes server -> client.
#define ZR_TRANSPORT_STATS_FIELDS(X) \
  X(exchanges)                       \
  X(bytes_up)                        \
  X(bytes_down)
ZR_COUNTER_SET(TransportStats, ZR_TRANSPORT_STATS_FIELDS);

/// Base: a client-side service stub with byte accounting.
///
/// Threading: a Transport is single-threaded — concurrent callers each own
/// their own instance (the load driver builds one per worker).
class Transport : public ZerberService {
 public:
  const TransportStats& stats() const { return stats_; }

  /// Clears the counters (TcpTransport also clears its socket counters).
  virtual void ResetStats() { stats_ = TransportStats(); }

 protected:
  /// Records one exchange of `up` request bytes and `down` response bytes.
  void Account(uint64_t up, uint64_t down);

  TransportStats stats_;
};

/// In-process pass-through with analytic byte accounting. `backend` is
/// borrowed and must outlive the transport.
class DirectTransport final : public Transport {
 public:
  explicit DirectTransport(ZerberService* backend) : backend_(backend) {}

  StatusOr<InsertResponse> Insert(const InsertRequest& request) override;
  StatusOr<QueryResponse> Fetch(const QueryRequest& request) override;
  StatusOr<MultiFetchResponse> MultiFetch(
      const MultiFetchRequest& request) override;
  StatusOr<DeleteResponse> Delete(const DeleteRequest& request) override;

 private:
  /// The one exchange path of every request type: dispatches to the
  /// backend and accounts the analytic message sizes.
  template <WireRequest Request>
  StatusOr<typename Request::Response> Exchange(const Request& request);

  ZerberService* backend_;
};

/// Factory used by pipeline/bench/load configuration. kDirect wraps
/// `backend` in-process; kTcp ignores `backend` and connects a
/// TcpTransport (net/tcp.h) to `connect_addr` ("host:port") — null is
/// returned when kTcp is requested without an address.
std::unique_ptr<Transport> MakeTransport(TransportKind kind,
                                         ZerberService* backend,
                                         const std::string& connect_addr = {});

}  // namespace zr::net

#endif  // ZERBERR_NET_TRANSPORT_H_
