// ServerStats: the index server's counter set (obs/counter_set.h).
//
// Kept apart from zerber/zerber_index.h so the wire layer (net/messages.h,
// whose StatsResponse carries one) can name it without the server.

#ifndef ZERBERR_ZERBER_SERVER_STATS_H_
#define ZERBERR_ZERBER_SERVER_STATS_H_

#include "obs/counter_set.h"

namespace zr::zerber {

/// Cumulative server-side counters for the evaluation harness. See the
/// counting policy in zerber/zerber_index.h: *_requests counts every
/// arriving request, including rejected ones; *_denied counts ACL
/// rejections. bytes_served is the served wire size of the elements
/// counted by elements_served (FetchResult::wire_bytes).
///
/// The *_latency_ns sums accumulate the server-side wall time of every
/// arriving request of that class (successful or not), measured around the
/// request body; IndexServer reads them from its latency histograms.
/// Dividing by the matching *_requests counter yields the mean server-side
/// latency; the load harness (src/load) cross-checks these against its
/// client-side timings — server time is a subset of the client op, so
/// sum(server latencies) <= sum(client latencies) always.
///
/// The list order is the StatsResponse wire order and the report's JSON
/// key order.
#define ZR_SERVER_STATS_FIELDS(X) \
  X(fetch_requests)               \
  X(insert_requests)              \
  X(insert_denied)                \
  X(delete_requests)              \
  X(delete_denied)                \
  X(elements_served)              \
  X(bytes_served)                 \
  X(fetch_latency_ns)             \
  X(insert_latency_ns)            \
  X(delete_latency_ns)
ZR_COUNTER_SET(ServerStats, ZR_SERVER_STATS_FIELDS);

}  // namespace zr::zerber

#endif  // ZERBERR_ZERBER_SERVER_STATS_H_
