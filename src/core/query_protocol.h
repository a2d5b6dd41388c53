// The Zerber+R query-answering protocol (paper Section 5.2).
//
// The server returns an initial response of `b` top-TRS elements of the
// requested merged list. The client decrypts, filters out foreign terms and,
// if it has not yet collected k hits, issues follow-up requests whose size
// *doubles* each round ("Zerber+R doubles response size for each follow-up
// request until the user is satisfied with the result or obtains the whole
// list"). The schedule both caps the number of round trips (log) and blurs
// the adversary's estimate of the queried term's position in the list.

#ifndef ZERBERR_CORE_QUERY_PROTOCOL_H_
#define ZERBERR_CORE_QUERY_PROTOCOL_H_

#include <cstddef>
#include <cstdint>

namespace zr::core {

/// Client-side protocol tunables.
struct ProtocolOptions {
  /// Initial response size b (paper Section 6.4: b = k minimizes bandwidth
  /// overhead; b = 10 for the flagship top-10 experiments). Every list
  /// starts at b: sizing the first request by the list's term count (the
  /// paper's footnote 1) was measured to let a term's fetch shape reveal
  /// more about which term of its list was queried (ROADMAP.md).
  size_t initial_response_size = 10;
};

/// Safety cap on one term's requests (the schedule is geometric, so 64
/// requests would cover any list; this guards protocol bugs, not
/// workloads).
inline constexpr size_t kMaxRequests = 64;

/// Transfer accounting of one top-k query (inputs of Equations 12-14). A
/// multi-term query counts its terms together: each round is one exchange.
struct QueryTrace {
  /// Server round trips, one per exchange (1 = answered by the initial
  /// response).
  uint64_t requests = 0;

  /// Total posting elements transferred — the paper's TRes.
  uint64_t elements_fetched = 0;

  /// Bytes transferred server -> client: the wire size of every response
  /// message received.
  uint64_t bytes_fetched = 0;

  /// Elements of the queried terms among those fetched (at most k per
  /// term).
  uint64_t hits = 0;

  /// True when an accessible list was exhausted before k hits were found.
  bool exhausted = false;
};

/// Size of the i-th request (0-based) under the doubling schedule: b * 2^i.
uint64_t RequestSize(size_t initial_response_size, size_t request_index);

/// Cumulative elements after request index n (Equation 12):
/// TRes = b * sum_{i=0..n} 2^i = b * (2^(n+1) - 1).
uint64_t CumulativeResponseSize(size_t initial_response_size, size_t last_index);

/// Efficiency in query answering (Equation 14): QRatio_eff = k / TRes.
/// Returns 1.0 when nothing was transferred (vacuously efficient).
double QueryEfficiencyRatio(size_t k, uint64_t total_response_size);

}  // namespace zr::core

#endif  // ZERBERR_CORE_QUERY_PROTOCOL_H_
