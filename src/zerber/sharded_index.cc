#include "zerber/sharded_index.h"

#include <algorithm>
#include <utility>

#include "zerber/routing.h"

namespace zr::zerber {

namespace {

std::vector<std::unique_ptr<IndexServer>> MakeServers(
    size_t num_lists, const ShardedIndexService::Options& options) {
  size_t num_shards = std::max<size_t>(1, options.num_shards);
  std::vector<std::unique_ptr<IndexServer>> servers;
  servers.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    servers.push_back(std::make_unique<IndexServer>(
        ListsOnShard(num_lists, num_shards, s), options.placement,
        ShardSeed(options.seed, num_shards, s),
        HandleSpace{num_shards, s}));
  }
  return servers;
}

std::vector<std::unique_ptr<net::ShardService>> Handles(
    const std::vector<std::unique_ptr<IndexServer>>& servers) {
  std::vector<std::unique_ptr<net::ShardService>> handles;
  handles.reserve(servers.size());
  for (const auto& server : servers) {
    handles.push_back(std::make_unique<net::IndexService>(server.get()));
  }
  return handles;
}

}  // namespace

ShardedIndexService::ShardedIndexService(size_t num_lists,
                                         const Options& options)
    : ShardedIndexService(num_lists, options.num_workers,
                          MakeServers(num_lists, options)) {}

// The router is built first, over handles borrowing `servers`; the servers
// then move into this object, which outlives every request.
ShardedIndexService::ShardedIndexService(
    size_t num_lists, size_t num_workers,
    std::vector<std::unique_ptr<IndexServer>> servers)
    : ShardRouter(num_lists, Handles(servers), num_workers),
      servers_(std::move(servers)) {}

uint64_t ShardedIndexService::TotalElements() const {
  uint64_t total = 0;
  for (const auto& server : servers_) total += server->TotalElements();
  return total;
}

uint64_t ShardedIndexService::TotalWireSize() const {
  uint64_t total = 0;
  for (const auto& server : servers_) total += server->TotalWireSize();
  return total;
}

StatusOr<const MergedList*> ShardedIndexService::GetList(
    MergedListId list) const {
  ZR_RETURN_IF_ERROR(CheckList(list));
  // Quiescent-only by contract (see the declaration); claim the owning
  // shard's capability on the caller's behalf.
  const IndexServer& shard = *servers_[ShardOfList(list)];
  QuiescenceLock quiesced(shard.quiescence());
  return shard.GetList(LocalListId(list));
}

}  // namespace zr::zerber
