// ShardRouter: one logical Zerber index served over N shard handles.
//
// Merged posting lists are independent by construction — a fetch, insert or
// delete touches exactly one list, and the paper's per-list privacy argument
// (Definition 2, Section 5.2) is oblivious to which server stores the list.
// ShardRouter spreads the global list space over N net::ShardService
// handles and serves the ZerberService protocol over them. The handle type
// is the deployment: zerber::ShardedIndexService builds in-process
// IndexService shards, store::DurableIndexService builds WAL-backed
// store::DurableShards, cluster::RouterService builds cluster::ShardClient
// connections to shard-server processes. Everything else exists once, here:
//
//  * Routing (zerber/routing.h): global list L lives on shard L % N as
//    local list L / N; shard s assigns handles from the residue class
//    {h : h % N == s}, so handles are unique across shards and a Delete
//    routes by its list id alone — no broadcast, no shared counter.
//  * Insert/Fetch/Delete translate the list id and forward to the owning
//    shard.
//  * MultiFetch validates every range upfront (atomic failure before any
//    shard does work), groups the ranges into one sub-MultiFetch per shard,
//    fans the batches out on a small worker pool (the calling thread serves
//    one itself), and reassembles the responses in request order.
//  * ACL changes broadcast to every shard; stats() sums the shards'
//    ServerStats.
//
// Tracing: every shard call runs under a router_fanout span (detail = shard
// index). A traced MultiFetch hands its context to the pool batches and
// collects their spans, which the calling thread records after the join —
// so they reach the caller's sink (a TcpServer dispatch's response) rather
// than the process tracer.
//
// Threading: the request path is thread-safe (both handle types are). The
// operator surface (ACL broadcast) requires the quiescence every backend
// requires.

#ifndef ZERBERR_NET_SHARD_ROUTER_H_
#define ZERBERR_NET_SHARD_ROUTER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/service.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"
#include "zerber/routing.h"
#include "zerber/zerber_index.h"

namespace zr::net {

class ShardRouter : public ZerberService {
 public:
  /// Sentinel for num_workers: size the pool to min(num_shards, hardware
  /// threads) - 1.
  static constexpr size_t kAutoWorkers = static_cast<size_t>(-1);

  /// Routes `num_lists` global merged lists over `shards` (shard s holds
  /// the lists {L : L % N == s}). `num_workers` threads fan MultiFetch
  /// batches out; the calling thread always serves one batch itself, so 0
  /// degrades to fully inline (still correct, no parallelism).
  ShardRouter(size_t num_lists,
              std::vector<std::unique_ptr<ShardService>> shards,
              size_t num_workers);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // ZerberService request path (global list ids; handles are globally
  // unique). Thread-safe.
  StatusOr<InsertResponse> Insert(const InsertRequest& request) override;
  StatusOr<QueryResponse> Fetch(const QueryRequest& request) override;
  StatusOr<MultiFetchResponse> MultiFetch(
      const MultiFetchRequest& request) override;
  StatusOr<DeleteResponse> Delete(const DeleteRequest& request) override;

  /// Routing (deterministic, stateless; zerber/routing.h).
  size_t num_shards() const { return shards_.size(); }
  size_t ShardOfList(zerber::MergedListId list) const {
    return zerber::ShardOfList(list, shards_.size());
  }
  size_t ShardOfHandle(uint64_t handle) const {
    return zerber::ShardOfHandle(handle, shards_.size());
  }
  zerber::MergedListId LocalListId(zerber::MergedListId list) const {
    return zerber::LocalListId(list, shards_.size());
  }

  /// Number of global merged lists.
  size_t NumLists() const { return num_lists_; }

  /// Worker threads actually running (after kAutoWorkers resolution).
  size_t num_workers() const { return workers_.size(); }

  /// Operator API: ACL changes broadcast to every shard in shard order
  /// (each shard enforces access locally, so all must agree). The first
  /// failing shard stops the broadcast with its status. Requires
  /// quiescence.
  Status AddGroup(crypto::GroupId group);
  Status GrantMembership(zerber::UserId user, crypto::GroupId group);
  Status RevokeMembership(zerber::UserId user, crypto::GroupId group);

  /// Sums ServerStats over every shard; a shard that cannot be scraped
  /// contributes zeros (stats are observability, not control flow). Every
  /// request the router forwards is counted by its owning shard, even when
  /// rejected, so healthy totals match one unsharded IndexServer's; the one
  /// exception is a MultiFetch naming an invalid list, which fails before
  /// any shard does work. Thread-safe.
  zerber::ServerStats stats() const;

 protected:
  /// OutOfRange unless `list` is a global list id.
  Status CheckList(zerber::MergedListId list) const;

  /// The handle of shard `s`, as the subclass built it.
  ShardService& shard_service(size_t s) const { return *shards_[s]; }

 private:
  template <typename Request, typename Response>
  StatusOr<Response> Forward(
      StatusOr<Response> (ZerberService::*call)(const Request&),
      const Request& request);
  Status Broadcast(const AclRequest& request);

  void WorkerLoop();
  void Enqueue(std::function<void()> task);

  size_t num_lists_;
  std::vector<std::unique_ptr<ShardService>> shards_;

  std::vector<std::thread> workers_;
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<std::function<void()>> queue_ ZR_GUARDED_BY(queue_mu_);
  bool stopping_ ZR_GUARDED_BY(queue_mu_) = false;
};

}  // namespace zr::net

#endif  // ZERBERR_NET_SHARD_ROUTER_H_
