#include "net/bandwidth.h"

#include "net/transport.h"

namespace zr::net {

double LinkModel::TransferSeconds(uint64_t bytes) const {
  if (bits_per_second <= 0.0) return latency_seconds;
  return latency_seconds +
         static_cast<double>(bytes) * 8.0 / bits_per_second;
}

double TransferSeconds(const TransportStats& stats, LinkModel up,
                       LinkModel down) {
  const double exchanges = static_cast<double>(stats.exchanges);
  double up_seconds =
      static_cast<double>(stats.bytes_up) * 8.0 / up.bits_per_second +
      up.latency_seconds * exchanges;
  double down_seconds =
      static_cast<double>(stats.bytes_down) * 8.0 / down.bits_per_second +
      down.latency_seconds * exchanges;
  return up_seconds + down_seconds;
}

double QueriesPerSecond(const LinkModel& link, uint64_t bytes_per_query) {
  if (bytes_per_query == 0) return 0.0;
  double per_query_seconds =
      static_cast<double>(bytes_per_query) * 8.0 / link.bits_per_second;
  if (per_query_seconds <= 0.0) return 0.0;
  return 1.0 / per_query_seconds;
}

}  // namespace zr::net
