#include "crypto/drbg.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace zr::crypto {
namespace {

TEST(DrbgTest, DeterministicForSameSeed) {
  Drbg a("seed"), b("seed");
  EXPECT_EQ(a.GenerateBytes(64), b.GenerateBytes(64));
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

std::string HexOf(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kHex[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kHex[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

// Golden output (SHA-256 seeding, then AES-128 counter blocks), captured
// with the portable block routines alone; every host must reproduce it.
TEST(DrbgTest, FirstBytesAreByteIdentical) {
  Drbg drbg("seed");
  EXPECT_EQ(HexOf(drbg.GenerateBytes(64)),
            "9b715a7c78a64048a0484396be44bce92ff7e28829a4cbc1505493b2b219ef9b"
            "7828dcb30d5f38ef3308fc38313fc89a29750a57ff2fec96f4a8c99bdb28b41a");
}

TEST(DrbgTest, DifferentSeedsDiverge) {
  Drbg a("seed-a"), b("seed-b");
  EXPECT_NE(a.GenerateBytes(32), b.GenerateBytes(32));
}

TEST(DrbgTest, GeneratesRequestedLength) {
  Drbg d("x");
  for (size_t n : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    EXPECT_EQ(d.GenerateBytes(n).size(), n);
  }
}

TEST(DrbgTest, StreamIsStateful) {
  // Two consecutive chunks must differ from restarting the generator.
  Drbg d("x");
  std::string first = d.GenerateBytes(16);
  std::string second = d.GenerateBytes(16);
  EXPECT_NE(first, second);
  Drbg fresh("x");
  EXPECT_EQ(fresh.GenerateBytes(16), first);
}

TEST(DrbgTest, ChunkingDoesNotChangeStream) {
  Drbg a("seed"), b("seed");
  std::string whole = a.GenerateBytes(100);
  std::string parts;
  for (size_t n : {7u, 13u, 16u, 32u, 32u}) parts += b.GenerateBytes(n);
  EXPECT_EQ(whole, parts);
}

TEST(DrbgTest, DoublesApproximatelyUniform) {
  Drbg d("uniformity");
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(d.NextDouble());
  EXPECT_LT(KolmogorovSmirnovUniform(samples), 0.015);
}

TEST(DrbgTest, U64ValuesDoNotRepeatQuickly) {
  Drbg d("no-repeat");
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(d.NextU64());
  EXPECT_EQ(seen.size(), 10000u);  // collisions are ~2^-64 unlikely
}

TEST(DrbgTest, ByteDistributionBalanced) {
  Drbg d("bytes");
  std::string bytes = d.GenerateBytes(256 * 100);
  std::vector<int> counts(256, 0);
  for (unsigned char c : bytes) ++counts[c];
  for (int c : counts) {
    EXPECT_GT(c, 40);   // mean 100, binomial sd ~10
    EXPECT_LT(c, 180);
  }
}

}  // namespace
}  // namespace zr::crypto
