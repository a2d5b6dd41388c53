#include "net/bandwidth.h"

#include <gtest/gtest.h>

#include "net/transport.h"

namespace zr::net {
namespace {

TEST(LinkModelTest, TransferTimeIsLatencyPlusSerialization) {
  LinkModel link{1000.0, 0.5};  // 1000 bits/s, 500 ms latency
  // 125 bytes = 1000 bits -> 1 s + 0.5 s latency.
  EXPECT_DOUBLE_EQ(link.TransferSeconds(125), 1.5);
  EXPECT_DOUBLE_EQ(link.TransferSeconds(0), 0.5);
}

TEST(LinkModelTest, PaperModemNumbers) {
  // 0.7 KB (5.3 kb within rounding) per query term over 56 kb/s ~ 0.1 s.
  double seconds = kModem56k.TransferSeconds(700) - kModem56k.latency_seconds;
  EXPECT_NEAR(seconds, 0.1, 0.01);
}

TEST(QueriesPerSecondTest, MatchesPaperSection66Arithmetic) {
  // Paper: ~85 elements * 8 B = 680 B per term; 2.4 terms per query
  // -> ~1.6 KB per query on the server link; 100 Mb/s serves ~750 q/s
  // (the paper's number alongside snippet overhead).
  uint64_t bytes_per_query = static_cast<uint64_t>(85 * 8 * 2.4 + 10 * 250);
  double qps = QueriesPerSecond(kLan100M, bytes_per_query);
  EXPECT_GT(qps, 500.0);
  EXPECT_LT(qps, 5000.0);
}

TEST(QueriesPerSecondTest, ZeroBytesYieldsZero) {
  EXPECT_DOUBLE_EQ(QueriesPerSecond(kLan100M, 0), 0.0);
}

TEST(SnippetModelTest, Top10IsAbout2500Bytes) {
  SnippetModel snippets;
  EXPECT_EQ(snippets.ResponseBytes(10), 2500u);  // paper: 2.5 KB
}

TEST(SearchEngineSizesTest, PaperComparisonConstants) {
  SearchEngineResponseSizes sizes;
  EXPECT_EQ(sizes.google_bytes, 15u * 1024);
  EXPECT_EQ(sizes.altavista_bytes, 37u * 1024);
  EXPECT_EQ(sizes.yahoo_bytes, 59u * 1024);
}

TEST(TransferSecondsTest, PricesTrafficPerLinkAndExchange) {
  TransportStats stats;
  stats.exchanges = 2;
  stats.bytes_up = 150;
  stats.bytes_down = 2000;
  // 150 B up on the modem, 2000 B down on the LAN, each link's latency
  // once per exchange.
  EXPECT_DOUBLE_EQ(TransferSeconds(stats, kModem56k, kLan100M),
                   150 * 8.0 / kModem56k.bits_per_second +
                       2 * kModem56k.latency_seconds +
                       2000 * 8.0 / kLan100M.bits_per_second +
                       2 * kLan100M.latency_seconds);
  EXPECT_GT(TransferSeconds(stats, kModem56k, kLan100M), 0.0);
}

TEST(TransferSecondsTest, NoTrafficTakesNoTime) {
  EXPECT_DOUBLE_EQ(TransferSeconds(TransportStats(), kModem56k, kLan100M),
                   0.0);
}

TEST(TransferSecondsTest, AsymmetricLinksModelled) {
  // Downloading 10 KB over the modem downlink dominates; same bytes on the
  // LAN are negligible.
  TransportStats stats;
  stats.exchanges = 1;
  stats.bytes_down = 10240;
  EXPECT_GT(TransferSeconds(stats, kLan100M, kModem56k),
            10 * TransferSeconds(stats, kLan100M, kLan100M));
}

}  // namespace
}  // namespace zr::net
