// Bulk index construction + storage accounting for Zerber+R.

#ifndef ZERBERR_CORE_ZERBER_R_INDEX_H_
#define ZERBERR_CORE_ZERBER_R_INDEX_H_

#include <cstdint>

#include "core/trs.h"
#include "core/zerber_r_client.h"
#include "text/corpus.h"
#include "zerber/merge_planner.h"
#include "zerber/sharded_index.h"

namespace zr::core {

/// Indexes every document of `corpus` through `client` (sealing, TRS
/// assignment, server-side sorted insert). The client's user must be a
/// member of every group present in the corpus.
Status BuildEncryptedIndex(const text::Corpus& corpus, ZerberRClient* client);

/// Storage accounting (paper Section 6.3): Zerber+R attaches one TRS per
/// element *instead of* the plaintext relevance score an ordinary inverted
/// index stores, so the per-element ranking overhead is zero.
struct StorageReport {
  uint64_t elements = 0;

  /// Total sealed index size on the server.
  uint64_t encrypted_index_bytes = 0;

  /// Bytes per element actually stored by our implementation.
  double bytes_per_element = 0.0;

  /// Ranking-metadata bytes per element: Zerber+R (TRS double).
  uint64_t ranking_bytes_zerber_r = 8;

  /// Ranking-metadata bytes per element: ordinary index (score double).
  uint64_t ranking_bytes_ordinary = 8;

  /// Paper's compact element encoding (Section 6.6: 64 bits per element).
  uint64_t paper_element_bytes = 8;
};

/// Computes the storage report for a populated in-memory backend.
StorageReport ComputeStorageReport(const zerber::ShardedIndexService& index);

}  // namespace zr::core

#endif  // ZERBERR_CORE_ZERBER_R_INDEX_H_
