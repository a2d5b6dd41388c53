// Sharded, thread-safe index serving in one process.
//
// ShardedIndexService is the in-process deployment of net::ShardRouter
// (net/shard_router.h, which owns the routing, the MultiFetch fan-out, the
// ACL broadcast and the stats sum): it builds N internally thread-safe
// IndexServer shards, each behind a net::IndexService handle, so any number
// of client threads can insert/fetch/delete concurrently. Shard s holds the
// global lists {L : L % N == s} and assigns handles from the residue class
// {h : h % N == s} (zerber::HandleSpace), exactly like the shard-server
// processes behind cluster::RouterService. It is also every in-memory
// pipeline's backend: with N = 1 its one shard keeps the backend seed
// (zerber::ShardSeed), so it serves the same bytes an unsharded
// IndexServer would.

#ifndef ZERBERR_ZERBER_SHARDED_INDEX_H_
#define ZERBERR_ZERBER_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/shard_router.h"
#include "util/statusor.h"
#include "zerber/zerber_index.h"

namespace zr::zerber {

/// A ZerberService backend serving one logical index from N IndexServer
/// shards. Request path (Insert/Fetch/MultiFetch/Delete) is thread-safe;
/// the operator surface (AddGroup/GrantMembership/..., GetList, shard())
/// follows IndexServer's quiescence contract.
class ShardedIndexService : public net::ShardRouter {
 public:
  struct Options {
    /// Number of IndexServer shards the global list space is split across.
    size_t num_shards = 1;

    /// Worker threads fanning MultiFetch batches across shards (see
    /// net::ShardRouter; kAutoWorkers sizes the pool).
    size_t num_workers = kAutoWorkers;

    /// Where every shard's sort keys come from.
    Placement placement = Placement::kTrsSorted;

    /// Seed for random placement (each shard derives its own stream; see
    /// zerber::ShardSeed).
    uint64_t seed = 1;
  };

  /// Creates N shards jointly serving `num_lists` global merged lists.
  /// num_shards is clamped to at least 1.
  ShardedIndexService(size_t num_lists, const Options& options);

  /// Direct shard access (tests / persistence-per-shard). Quiescence rules
  /// of IndexServer apply for anything beyond the request path.
  IndexServer& shard(size_t s) { return *servers_[s]; }
  const IndexServer& shard(size_t s) const { return *servers_[s]; }

  /// Aggregates over all shards. Thread-safe (per-counter snapshots).
  uint64_t TotalElements() const;
  uint64_t TotalWireSize() const;

  /// Routed global-list view (quiescence rules of IndexServer::GetList).
  StatusOr<const MergedList*> GetList(MergedListId list) const;

 private:
  ShardedIndexService(size_t num_lists, size_t num_workers,
                      std::vector<std::unique_ptr<IndexServer>> servers);

  /// The servers the router's IndexService handles borrow.
  std::vector<std::unique_ptr<IndexServer>> servers_;
};

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_SHARDED_INDEX_H_
