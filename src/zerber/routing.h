// Shared shard-routing math.
//
// net::ShardRouter (the fan-out engine behind both ShardedIndexService and
// cluster::RouterService) and the shard servers' stores must agree
// bit-for-bit on how the global list space and handle space map onto N
// shards — a shard server recovered from its WAL has to land exactly where
// the router expects it. These helpers are that single source of truth:
//
//   * list  -> shard: global list L lives on shard L % N as local list L / N
//     (round-robin keeps BFM's frequency-adjacent lists on different shards,
//     spreading hot lists).
//   * handle -> shard: shard s assigns handles from the residue class
//     {h : h % N == s} (zerber::HandleSpace), so handles are unique across
//     shards and deletes route by list id with the handle's residue as a
//     free consistency check.
//   * seed  -> shard: each shard of N > 1 derives an independent
//     random-placement stream from the backend seed via a SplitMix64
//     finalizer; the one shard of N = 1 keeps the backend seed, so a
//     one-shard backend draws and numbers handles exactly like the
//     unsharded IndexServer it stands for.

#ifndef ZERBERR_ZERBER_ROUTING_H_
#define ZERBERR_ZERBER_ROUTING_H_

#include <cstddef>
#include <cstdint>

#include "zerber/zerber_index.h"

namespace zr::zerber {

/// Lists owned by shard `s`: global ids congruent to s modulo num_shards.
inline size_t ListsOnShard(size_t num_lists, size_t num_shards, size_t s) {
  if (s >= num_lists) return 0;
  return (num_lists - s + num_shards - 1) / num_shards;
}

/// SplitMix64 finalizer. Shard seeds must not be an affine family of the
/// constant IndexServer uses for its per-stripe streams, or shard s stripe i
/// and shard s+1 stripe i-1 would collapse to the same seed and draw
/// identical random-placement sequences — hashing breaks the structure, so
/// the shards behave like N independently seeded servers.
inline uint64_t MixSeed(uint64_t seed) {
  seed ^= seed >> 30;
  seed *= 0xBF58476D1CE4E5B9ull;
  seed ^= seed >> 27;
  seed *= 0x94D049BB133111EBull;
  seed ^= seed >> 31;
  return seed;
}

/// Placement seed of shard `s` of `num_shards`, derived from the backend
/// seed (the backend seed itself when num_shards == 1).
inline uint64_t ShardSeed(uint64_t seed, size_t num_shards, size_t s) {
  if (num_shards <= 1) return seed;
  return MixSeed(seed + 0x9E3779B97F4A7C15ull * (s + 1));
}

/// Owning shard of a global merged list id.
inline size_t ShardOfList(MergedListId list, size_t num_shards) {
  return list % num_shards;
}

/// Owning shard of a handle (residue class; see HandleSpace).
inline size_t ShardOfHandle(uint64_t handle, size_t num_shards) {
  return handle % num_shards;
}

/// Local list id of a global list on its owning shard.
inline MergedListId LocalListId(MergedListId list, size_t num_shards) {
  return list / static_cast<MergedListId>(num_shards);
}

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_ROUTING_H_
