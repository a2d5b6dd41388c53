// RouterService: one logical Zerber index served over N remote shard
// processes.
//
// The cluster deployment of net::ShardRouter (net/shard_router.h, which owns
// the routing, the MultiFetch fan-out, the ACL broadcast and the stats sum):
// each shard handle is a fault-tolerant cluster::ShardClient connection to
// an independent shard-server process (tools/shard_server.cc:
// store::DurableShard behind a net::TcpServer). This is the paper's
// deployment model made literal — the confidential index lives on
// untrusted, distributed servers, and the router holds no index state at
// all: every byte of posting data, every ACL bit, lives behind the wire.
// Its results are byte-identical to zerber::ShardedIndexService, the same
// engine over in-process shards.
//
// Failure semantics are ShardClient's: bounded retries with backoff for
// idempotent ops, fail-fast Unavailable while a shard's breaker is open (so
// a dead shard fails a MultiFetch fast instead of stalling the healthy
// shards' results), and automatic rejoin after a health probe verifies a
// restarted shard. The shard server applies ACL changes idempotently, so a
// retried broadcast converges.

#ifndef ZERBERR_CLUSTER_ROUTER_H_
#define ZERBERR_CLUSTER_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/shard_client.h"
#include "net/shard_router.h"
#include "obs/registry.h"
#include "util/status.h"

namespace zr::cluster {

/// Router-level aggregate of every shard's ShardClientStats: their sum.
using RouterStats = ShardClientStats;

class RouterService : public net::ShardRouter {
 public:
  struct Options {
    /// "host:port" of shard s at index s. Order is identity: shard s must
    /// be the server holding lists {L : L % N == s} (it echoes s as its
    /// server id, verified on every health probe).
    std::vector<std::string> shard_addrs;

    /// Worker threads fanning MultiFetch batches across shards (see
    /// net::ShardRouter; kAutoWorkers sizes the pool).
    size_t num_workers = kAutoWorkers;

    /// Fault-handling template applied to every shard's client; `addr` and
    /// `expected_server_id` are filled in per shard. The retry/breaker
    /// jitter seeds are decorrelated per shard (MixSeed of the template
    /// seed + shard index) so shards never retry in lockstep.
    ShardClientOptions client;
  };

  /// Routes `num_lists` global merged lists over options.shard_addrs.
  RouterService(size_t num_lists, const Options& options);

  /// Aggregated fault-handling counters across all shard clients.
  RouterStats router_stats() const;

  /// Direct client access (tests, targeted probes). Every handle of this
  /// router is the ShardClient its constructor built.
  ShardClient& shard_client(size_t s) const {
    return static_cast<ShardClient&>(shard_service(s));
  }

  /// Probes shard `s` until it answers or `timeout_ms` elapses. Used after
  /// (re)starting a shard process: success means the shard recovered its
  /// WAL and the router re-admitted it (breaker closed).
  Status WaitForShard(size_t s, uint64_t timeout_ms);

  /// WaitForShard over every shard.
  Status WaitForAll(uint64_t timeout_ms);

 private:
  /// `id="<n>"`: this router's scrape label.
  const std::string metric_labels_;

  /// Publishes RouterStats and per-shard ShardClientStats through the
  /// process metrics registry. Unregistered (RemoveCollector blocks out
  /// in-flight scrapes) before the router's shard clients are torn down.
  obs::CollectorHandle metrics_collector_;
};

}  // namespace zr::cluster

#endif  // ZERBERR_CLUSTER_ROUTER_H_
