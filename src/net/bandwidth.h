// Link bandwidth model (paper Section 6.6).
//
// The paper's network economics are analytical: users on a 56 kb/s modem,
// servers on 100 Mb/s LAN, XML snippets of ~250 B. We reproduce that
// arithmetic from measured byte counts rather than emulating packets — the
// paper itself computes these numbers the same way.

#ifndef ZERBERR_NET_BANDWIDTH_H_
#define ZERBERR_NET_BANDWIDTH_H_

#include <cstdint>

namespace zr::net {

/// A point-to-point link.
struct LinkModel {
  double bits_per_second = 0.0;
  double latency_seconds = 0.0;

  /// Seconds to move `bytes` over the link (latency + serialization).
  double TransferSeconds(uint64_t bytes) const;
};

/// The paper's user link: GPRS/modem at 56 kb/s.
constexpr LinkModel kModem56k{56'000.0, 0.150};

/// The paper's server link: 100 Mb/s LAN.
constexpr LinkModel kLan100M{100'000'000.0, 0.001};

/// Result snippet model: "each snippet contains about 250 B including XML
/// formatting".
struct SnippetModel {
  uint64_t bytes_per_snippet = 250;

  /// Bytes of the snippet payload for a top-k result page.
  uint64_t ResponseBytes(uint64_t k) const { return bytes_per_snippet * k; }
};

/// Comparison constants the paper cites for top-10 result pages.
struct SearchEngineResponseSizes {
  uint64_t zerber_r_bytes = 0;       ///< computed by the harness
  uint64_t google_bytes = 15 * 1024;  ///< ~15 KB
  uint64_t altavista_bytes = 37 * 1024;
  uint64_t yahoo_bytes = 59 * 1024;
};

struct TransportStats;

/// Modelled wall-clock seconds of the traffic in `stats` on the wire: the
/// bytes up serialized on `up` and the bytes down on `down`, plus each
/// link's latency once per exchange.
double TransferSeconds(const TransportStats& stats, LinkModel up,
                       LinkModel down);

/// Queries per second a server link sustains for a given per-query byte
/// cost (paper: ~750 q/s for 2.4-term queries on 100 Mb/s).
double QueriesPerSecond(const LinkModel& link, uint64_t bytes_per_query);

}  // namespace zr::net

#endif  // ZERBERR_NET_BANDWIDTH_H_
