// The field-list codec (util/codec.h) on a record of every field type it
// defines: exact bytes, sizes, the count rule, range-checked enums and the
// untagged Decode's trailing-byte rejection. Every real format's goldens
// and its seeded mutations live with the format (net_messages_test drives
// them all).

#include "util/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zr::codec {
namespace {

enum class Color : uint8_t { kRed = 1, kGreen = 2, kBlue = 3 };

struct Pair {
  uint32_t a = 0;
  std::string b;

  static void Fields(auto& p, auto&& f) {
    f(p.a);
    f(p.b);
  }
};

struct Sample {
  uint8_t byte = 0;
  bool flag = false;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint64_t fixed = 0;
  double real = 0.0;
  Color color = Color::kRed;
  std::vector<Pair> pairs;

  static void Fields(auto& s, auto&& f) {
    f(s.byte);
    f(s.flag);
    f(s.u32);
    f(s.u64);
    f(Fixed64{s.fixed});
    f(s.real);
    f(s.color);
    f(s.pairs);
  }
};

}  // namespace

template <>
struct Field<Color> : EnumField<Color, uint8_t, Color::kRed, Color::kBlue> {};

namespace {

std::string HexOf(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kHex[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kHex[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

Sample MakeSample() {
  Sample s;
  s.byte = 0xAB;
  s.flag = true;
  s.u32 = 300;
  s.u64 = uint64_t{1} << 35;
  s.fixed = 0x0102030405060708;
  s.real = 0.5;
  s.color = Color::kBlue;
  s.pairs = {{7, "hi"}, {128, ""}};
  return s;
}

TEST(CodecTest, EveryFieldTypeEncodesAsDocumented) {
  const Sample s = MakeSample();
  const std::string bytes = Encode(s);
  EXPECT_EQ(HexOf(bytes), "ab"                  // uint8_t: the raw byte
                          "01"                  // bool
                          "ac02"                // uint32_t: varint
                          "808080808001"        // uint64_t: varint
                          "0807060504030201"    // Fixed64: little-endian
                          "000000000000e03f"    // double: its bits, fixed64
                          "03"                  // enum: its integer
                          "02"                  // vector: count, then
                          "07" "02" "6869"      //   {7, "hi"}
                          "8001" "00");         //   {128, ""}
  EXPECT_EQ(FieldsSize(s), bytes.size());
  EXPECT_EQ(FieldsMinBytes<Sample>(), 1u + 1 + 1 + 1 + 8 + 8 + 1 + 1);

  auto parsed = Decode<Sample>(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(Encode(*parsed), bytes);
  EXPECT_EQ(parsed->fixed, s.fixed);
  EXPECT_EQ(parsed->real, s.real);
  EXPECT_EQ(parsed->color, Color::kBlue);
  ASSERT_EQ(parsed->pairs.size(), 2u);
  EXPECT_EQ(parsed->pairs[0].b, "hi");
}

TEST(CodecTest, DecodeRejectsTruncationAndTrailingBytes) {
  const std::string bytes = Encode(MakeSample());
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_TRUE(Decode<Sample>(bytes.substr(0, n)).status().IsCorruption())
        << n;
  }
  EXPECT_TRUE(Decode<Sample>(bytes + '\0').status().IsCorruption());
}

TEST(CodecTest, GetFieldsConsumesExactlyOneRecord) {
  std::string bytes;
  PutFields(&bytes, Pair{1, "a"});
  PutFields(&bytes, Pair{2, "bc"});
  std::string_view in(bytes);
  Pair first, second;
  ASSERT_TRUE(GetFields(&in, &first).ok());
  ASSERT_TRUE(GetFields(&in, &second).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(first.b, "a");
  EXPECT_EQ(second.a, 2u);
}

TEST(CodecTest, EnumOutsideItsRangeIsCorruption) {
  std::string bytes = Encode(MakeSample());
  const size_t color_at = 1 + 1 + 2 + 6 + 8 + 8;
  for (char bad : {'\0', '\x04', '\xff'}) {
    bytes[color_at] = bad;
    EXPECT_TRUE(Decode<Sample>(bytes).status().IsCorruption())
        << static_cast<int>(bad);
  }
}

// A count the remaining bytes cannot hold is refused before anything is
// reserved: each Pair takes at least 2 bytes.
TEST(CodecTest, CountRuleBoundsRepeatedFieldsByTheBytesLeft) {
  std::string bytes;
  PutVarint64(&bytes, 3);
  bytes += std::string(5, '\0');  // room for 2 empty pairs, not 3
  std::string_view in(bytes);
  std::vector<Pair> pairs;
  EXPECT_TRUE(Field<std::vector<Pair>>::Get(&in, &pairs).IsCorruption());
  EXPECT_TRUE(pairs.empty());

  std::string huge;
  PutVarint64(&huge, uint64_t{1} << 62);
  std::string_view huge_in(huge);
  EXPECT_TRUE(Field<std::vector<Pair>>::Get(&huge_in, &pairs).IsCorruption());
}

// An encoder may hand a span over data it does not own: same bytes as the
// vector.
TEST(CodecTest, SpanEncodesLikeTheVectorItViews) {
  const std::vector<Pair> pairs = {{1, "x"}, {2, "yz"}};
  std::string from_vector, from_span;
  Field<std::vector<Pair>>::Put(&from_vector, pairs);
  Field<std::span<const Pair>>::Put(&from_span, std::span<const Pair>(pairs));
  EXPECT_EQ(from_span, from_vector);
  EXPECT_EQ(Field<std::span<const Pair>>::Size(pairs), from_vector.size());
}

}  // namespace
}  // namespace zr::codec
