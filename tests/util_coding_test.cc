#include "util/coding.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/random.h"

namespace zr {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  for (uint32_t v : {0u, 1u, 0xffu, 0x12345678u, UINT32_MAX}) {
    std::string buf;
    PutFixed32(&buf, v);
    ASSERT_EQ(buf.size(), 4u);
    std::string_view in(buf);
    uint32_t out;
    ASSERT_TRUE(GetFixed32Cursor(&in, &out).ok());
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Fixed32IsLittleEndian) {
  std::string buf;
  PutFixed32(&buf, 0x01020304u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(buf[1]), 0x03);
  EXPECT_EQ(static_cast<uint8_t>(buf[2]), 0x02);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x01);
}

TEST(CodingTest, Fixed64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xdeadbeefcafebabe},
                     std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutFixed64(&buf, v);
    ASSERT_EQ(buf.size(), 8u);
    std::string_view in(buf);
    uint64_t out;
    ASSERT_TRUE(GetFixed64Cursor(&in, &out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, DoubleRoundTripExactBits) {
  for (double v : {0.0, -0.0, 1.0, -1.5, 3.141592653589793, 1e-300, 1e300,
                   std::numeric_limits<double>::infinity()}) {
    std::string buf;
    PutDouble(&buf, v);
    std::string_view in(buf);
    uint64_t bits;
    ASSERT_TRUE(GetFixed64Cursor(&in, &bits).ok());
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintKnownEncodings) {
  std::string buf;
  PutVarint32(&buf, 0);
  EXPECT_EQ(buf, std::string(1, '\0'));
  buf.clear();
  PutVarint32(&buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  PutVarint32(&buf, 128);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x80);
  EXPECT_EQ(static_cast<uint8_t>(buf[1]), 0x01);
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 21, uint64_t{1} << 42,
                     std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength64(v)) << v;
  }
  std::string buf;
  PutVarint32(&buf, UINT32_MAX);
  EXPECT_EQ(static_cast<int>(buf.size()), VarintLength32(UINT32_MAX));
}

TEST(CodingTest, VarintRandomRoundTrip) {
  Rng rng(7);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix of magnitudes: shift by a random amount to hit all byte lengths.
    uint64_t v = rng.NextU64() >> rng.Uniform(64);
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  std::string_view in(buf);
  for (uint64_t expected : values) {
    uint64_t out;
    ASSERT_TRUE(GetVarint64Cursor(&in, &out).ok());
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'x'));
  std::string_view in(buf);
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixedCursor(&in, &a).ok());
  ASSERT_TRUE(GetLengthPrefixedCursor(&in, &b).ok());
  ASSERT_TRUE(GetLengthPrefixedCursor(&in, &c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(300, 'x'));
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, TruncatedFixedFails) {
  std::string buf = "abc";  // 3 bytes < 4
  std::string_view in(buf);
  uint32_t v;
  EXPECT_TRUE(GetFixed32Cursor(&in, &v).IsCorruption());
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf(1, static_cast<char>(0x80));  // continuation, no end
  std::string_view in(buf);
  uint64_t v;
  EXPECT_TRUE(GetVarint64Cursor(&in, &v).IsCorruption());
}

TEST(CodingTest, OverlongVarintFails) {
  // More than ten bytes, ten bytes whose last carries bits beyond 64, and
  // a padded encoding of 1 (each value has one encoding: 01).
  for (const std::string& buf :
       {std::string(11, static_cast<char>(0x80)),
        std::string(9, static_cast<char>(0xff)) + '\x7f',
        std::string("\x81\x00", 2)}) {
    std::string_view in(buf);
    uint64_t v;
    EXPECT_TRUE(GetVarint64Cursor(&in, &v).IsCorruption()) << buf.size();
  }
  // A lone zero byte is zero's one encoding.
  std::string zero(1, '\0');
  std::string_view in(zero);
  uint64_t v = 1;
  ASSERT_TRUE(GetVarint64Cursor(&in, &v).ok());
  EXPECT_EQ(v, 0u);
}

TEST(CodingTest, Varint32OverflowFails) {
  std::string buf;
  PutVarint64(&buf, uint64_t{UINT32_MAX} + 1);
  std::string_view in(buf);
  uint32_t v;
  EXPECT_TRUE(GetVarint32Cursor(&in, &v).IsCorruption());
}

TEST(CodingTest, LengthPrefixBeyondBufferFails) {
  std::string buf;
  PutVarint64(&buf, 100);  // claims 100 bytes
  buf += "short";
  std::string_view in(buf);
  std::string_view v;
  EXPECT_TRUE(GetLengthPrefixedCursor(&in, &v).IsCorruption());
}

TEST(CodingTest, FailedReadsLeaveTheCursorInPlace) {
  std::string buf;
  PutVarint64(&buf, 100);  // a length prefix claiming 100 bytes
  buf += "short";
  std::string_view in(buf);
  std::string_view v;
  uint32_t fixed;
  ASSERT_TRUE(GetLengthPrefixedCursor(&in, &v).IsCorruption());
  ASSERT_TRUE(GetFixed32Cursor(&in, &fixed).ok());  // still at the prefix
  EXPECT_EQ(in, buf.substr(4));
}

TEST(CodingTest, LengthPrefixedViewsIntoBuffer) {
  std::string buf;
  PutLengthPrefixed(&buf, "ab");
  PutLengthPrefixed(&buf, "cdef");
  std::string_view in(buf);
  std::string_view head, tail;
  ASSERT_TRUE(GetLengthPrefixedCursor(&in, &head).ok());
  ASSERT_TRUE(GetLengthPrefixedCursor(&in, &tail).ok());
  EXPECT_EQ(head, "ab");
  EXPECT_EQ(tail, "cdef");
  EXPECT_EQ(head.data(), buf.data() + 1);  // zero-copy
  EXPECT_TRUE(in.empty());
}

}  // namespace
}  // namespace zr
