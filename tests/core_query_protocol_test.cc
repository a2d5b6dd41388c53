#include "core/query_protocol.h"

#include <gtest/gtest.h>

namespace zr::core {
namespace {

TEST(QueryProtocolTest, RequestSizesDouble) {
  EXPECT_EQ(RequestSize(10, 0), 10u);
  EXPECT_EQ(RequestSize(10, 1), 20u);
  EXPECT_EQ(RequestSize(10, 2), 40u);
  EXPECT_EQ(RequestSize(10, 5), 320u);
  EXPECT_EQ(RequestSize(1, 3), 8u);
}

TEST(QueryProtocolTest, CumulativeMatchesEquation12) {
  // TRes = b * sum_{i=0..n} 2^i = b * (2^(n+1) - 1).
  EXPECT_EQ(CumulativeResponseSize(10, 0), 10u);   // b
  EXPECT_EQ(CumulativeResponseSize(10, 1), 30u);   // b + 2b
  EXPECT_EQ(CumulativeResponseSize(10, 2), 70u);   // b + 2b + 4b
  EXPECT_EQ(CumulativeResponseSize(5, 3), 75u);    // 5 * 15
}

TEST(QueryProtocolTest, CumulativeIsSumOfRequestSizes) {
  for (size_t b : {1u, 7u, 10u, 50u}) {
    uint64_t acc = 0;
    for (size_t n = 0; n < 10; ++n) {
      acc += RequestSize(b, n);
      EXPECT_EQ(CumulativeResponseSize(b, n), acc) << "b=" << b << " n=" << n;
    }
  }
}

TEST(QueryProtocolTest, PaperExampleTop10WithinTwoRequests) {
  // Section 6.4: "with an initial response size of approximately 10 elements
  // most of the query terms return the top-10 results within 2 requests
  // (returning 30 posting elements in total)".
  EXPECT_EQ(CumulativeResponseSize(10, 1), 30u);
}

TEST(QueryProtocolTest, OverflowGuards) {
  EXPECT_EQ(RequestSize(10, 63), UINT64_MAX);
  EXPECT_EQ(CumulativeResponseSize(10, 62), UINT64_MAX);
}

TEST(QueryProtocolTest, EfficiencyRatioIsEquation14) {
  EXPECT_DOUBLE_EQ(QueryEfficiencyRatio(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QueryEfficiencyRatio(10, 30), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(QueryEfficiencyRatio(10, 100), 0.1);
  EXPECT_DOUBLE_EQ(QueryEfficiencyRatio(10, 0), 1.0);  // nothing transferred
}

TEST(QueryProtocolTest, DefaultOptionsMatchPaperFlagship) {
  ProtocolOptions o;
  EXPECT_EQ(o.initial_response_size, 10u);  // b = k = 10
  EXPECT_GE(kMaxRequests, 32u);
}

}  // namespace
}  // namespace zr::core
