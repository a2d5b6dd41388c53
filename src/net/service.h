// ZerberService: the narrow request/response API crossing the trust
// boundary between clients and the untrusted index server.
//
// Everything a client may ask of the server is one of these typed
// exchanges; the paper's security and bandwidth claims (Sections 5.2, 6.6)
// are claims about exactly this surface. Clients never hold an
// `zerber::IndexServer*` — they speak to a ZerberService, usually through a
// Transport (net/transport.h), so sharded / async / remote backends are
// drop-in replacements.

#ifndef ZERBERR_NET_SERVICE_H_
#define ZERBERR_NET_SERVICE_H_

#include "net/messages.h"
#include "util/statusor.h"
#include "zerber/zerber_index.h"

namespace zr::net {

/// The client<->server protocol, one virtual per message exchange.
///
/// Implementations: IndexService (one IndexServer; the in-process shard
/// handle), ShardRouter (one fan-out engine over N ShardService handles,
/// net/shard_router.h)
/// with its three deployments zerber::ShardedIndexService (in-process
/// IndexService shards), store::DurableIndexService (store::DurableShard
/// handles: WAL-backed shards serving through an IndexService) and
/// cluster::RouterService (cluster::ShardClient connections to shard
/// processes, each serving a DurableShard), and the client-side stubs
/// DirectTransport / TcpTransport forwarding to a backend service
/// (net/transport.h, net/tcp.h).
///
/// Threading: the request path of every *server-side* implementation
/// (Insert/Fetch/MultiFetch/Delete) is safe from any number of threads —
/// net::TcpServer and multi-worker drivers rely on this. Client-side
/// transport stubs are single-threaded (one per client thread).
///
/// Ownership: implementations borrow the objects they adapt (IndexService
/// borrows its IndexServer) unless documented otherwise (a ShardRouter
/// owns its handles, a DurableShard its IndexServer); callers keep
/// requests alive only for the duration of the call, and responses are
/// returned by value.
class ZerberService {
 public:
  virtual ~ZerberService() = default;

  /// Inserts one sealed element; the response acks with the server handle.
  virtual StatusOr<InsertResponse> Insert(const InsertRequest& request) = 0;

  /// Fetches a range of a merged list (offset/count address the accessible
  /// subsequence for the requesting user).
  virtual StatusOr<QueryResponse> Fetch(const QueryRequest& request) = 0;

  /// Several list fetches in one round trip; responses[i] answers
  /// request.fetches[i]. Fails atomically: any failing range fails the call.
  virtual StatusOr<MultiFetchResponse> MultiFetch(
      const MultiFetchRequest& request) = 0;

  /// Deletes one element by server handle.
  virtual StatusOr<DeleteResponse> Delete(const DeleteRequest& request) = 0;
};

/// The ZerberService call that answers each request type: the one
/// request-to-method table that DirectTransport and TcpServer dispatch
/// through.
inline StatusOr<InsertResponse> Serve(ZerberService& service,
                                      const InsertRequest& request) {
  return service.Insert(request);
}
inline StatusOr<QueryResponse> Serve(ZerberService& service,
                                     const QueryRequest& request) {
  return service.Fetch(request);
}
inline StatusOr<MultiFetchResponse> Serve(ZerberService& service,
                                          const MultiFetchRequest& request) {
  return service.MultiFetch(request);
}
inline StatusOr<DeleteResponse> Serve(ZerberService& service,
                                      const DeleteRequest& request) {
  return service.Delete(request);
}

/// One shard behind a ShardRouter: the request protocol plus the
/// operator's control-plane calls, which the router broadcasts (Acl) and
/// sums (Stats). An in-process shard is an IndexService or a
/// store::DurableShard; a remote one is a cluster::ShardClient, whose calls
/// cross the wire as AclRequest and StatsRequest frames.
class ShardService : public ZerberService {
 public:
  /// Applies one ACL mutation. Requires quiescence.
  virtual Status Acl(const AclRequest& request) = 0;

  /// The shard's ServerStats counters.
  virtual StatusOr<StatsResponse> Stats() = 0;
};

/// Server-side implementation: adapts zerber::IndexServer to the service
/// API. Lives next to the server; performs no serialization and no byte
/// accounting (that is the transport's job). Thread-safe on the request
/// path (IndexServer is); `server` is borrowed and must outlive the
/// service.
class IndexService : public ShardService {
 public:
  /// `server` must outlive the service.
  explicit IndexService(zerber::IndexServer* server) : server_(server) {}

  StatusOr<InsertResponse> Insert(const InsertRequest& request) override;
  StatusOr<QueryResponse> Fetch(const QueryRequest& request) override;
  StatusOr<MultiFetchResponse> MultiFetch(
      const MultiFetchRequest& request) override;
  StatusOr<DeleteResponse> Delete(const DeleteRequest& request) override;
  Status Acl(const AclRequest& request) override;
  StatusOr<StatsResponse> Stats() override;

  zerber::IndexServer* server() { return server_; }

 private:
  zerber::IndexServer* server_;
};

}  // namespace zr::net

#endif  // ZERBERR_NET_SERVICE_H_
