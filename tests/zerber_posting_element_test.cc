#include "zerber/posting_element.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace zr::zerber {
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

// Known answer: the first element a fresh KeyStore("seed") seals for group
// 1. The bytes were captured before keys were prepared once per group; any
// change to key derivation, nonces or the seal format moves them, and with
// them every committed baseline.
TEST(PostingElementGoldenTest, FirstSealIsByteIdentical) {
  crypto::KeyStore keys("seed");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  const PostingPayload payload{1, 2, 0.5};
  auto element = SealPostingElement(payload, 1, 0.5, &keys);
  ASSERT_TRUE(element.ok());
  EXPECT_EQ(HexOf(element->sealed.view()),
            "7828dcb30d5f38ef6dabf328574baf1ce7b7bfe9b8dc48abfa6c");
  auto opened = OpenPostingElement(*element, keys);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, payload);
}

class PostingElementTest : public ::testing::Test {
 protected:
  PostingElementTest() : keys_("test-seed") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
  }
  crypto::KeyStore keys_;
};

TEST_F(PostingElementTest, PayloadSerializationRoundTrip) {
  PostingPayload p{42, 1234, 0.375};
  auto parsed = ParsePayload(SerializePayload(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, p);
}

TEST_F(PostingElementTest, PayloadParseRejectsTruncation) {
  std::string bytes = SerializePayload(PostingPayload{1, 2, 0.5});
  EXPECT_TRUE(ParsePayload(bytes.substr(0, bytes.size() - 1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(ParsePayload("").status().IsCorruption());
}

TEST_F(PostingElementTest, PayloadParseRejectsTrailingBytes) {
  std::string bytes = SerializePayload(PostingPayload{1, 2, 0.5}) + "x";
  EXPECT_TRUE(ParsePayload(bytes).status().IsCorruption());
}

TEST_F(PostingElementTest, SealOpenRoundTrip) {
  PostingPayload p{7, 99, 0.125};
  auto element = SealPostingElement(p, 1, 0.66, &keys_);
  ASSERT_TRUE(element.ok());
  EXPECT_EQ(element->group, 1u);
  EXPECT_DOUBLE_EQ(element->trs, 0.66);
  auto opened = OpenPostingElement(*element, keys_);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, p);
}

TEST_F(PostingElementTest, SealFailsForUnknownGroup) {
  EXPECT_TRUE(SealPostingElement(PostingPayload{1, 2, 0.5}, 99, 0.5, &keys_)
                  .status()
                  .IsNotFound());
}

TEST_F(PostingElementTest, OpenWithoutGroupKeysIsPermissionDenied) {
  auto element = SealPostingElement(PostingPayload{1, 2, 0.5}, 2, 0.5, &keys_);
  ASSERT_TRUE(element.ok());
  crypto::KeyStore other("other-seed");
  ASSERT_TRUE(other.CreateGroup(1).ok());  // has group 1, not 2
  EXPECT_TRUE(
      OpenPostingElement(*element, other).status().IsPermissionDenied());
}

TEST_F(PostingElementTest, OpenWithWrongKeysForSameGroupFailsAuth) {
  auto element = SealPostingElement(PostingPayload{1, 2, 0.5}, 1, 0.5, &keys_);
  ASSERT_TRUE(element.ok());
  crypto::KeyStore other("other-seed");
  ASSERT_TRUE(other.CreateGroup(1).ok());  // same group id, different keys
  EXPECT_TRUE(OpenPostingElement(*element, other).status().IsCorruption());
}

TEST_F(PostingElementTest, TamperedSealDetected) {
  auto element = SealPostingElement(PostingPayload{1, 2, 0.5}, 1, 0.5, &keys_);
  ASSERT_TRUE(element.ok());
  element->sealed[5] ^= 0x40;
  EXPECT_TRUE(OpenPostingElement(*element, keys_).status().IsCorruption());
}

TEST_F(PostingElementTest, CiphertextHidesPayload) {
  // The same payload sealed twice (fresh nonces) must yield different bytes.
  PostingPayload p{7, 99, 0.125};
  auto a = SealPostingElement(p, 1, 0.5, &keys_);
  auto b = SealPostingElement(p, 1, 0.5, &keys_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->sealed, b->sealed);
}

TEST_F(PostingElementTest, ElementWireRoundTrip) {
  auto element =
      SealPostingElement(PostingPayload{3, 4, 0.25}, 1, 0.875, &keys_);
  ASSERT_TRUE(element.ok());
  std::string wire = codec::Encode(*element);
  EXPECT_EQ(wire.size(), element->WireSize());

  auto parsed = codec::Decode<EncryptedPostingElement>(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->group, element->group);
  EXPECT_DOUBLE_EQ(parsed->trs, element->trs);
  EXPECT_EQ(parsed->sealed, element->sealed);
}

TEST_F(PostingElementTest, ElementsConcatenateOnTheWire) {
  auto a = SealPostingElement(PostingPayload{1, 1, 0.1}, 1, 0.9, &keys_);
  auto b = SealPostingElement(PostingPayload{2, 2, 0.2}, 2, 0.8, &keys_);
  ASSERT_TRUE(a.ok() && b.ok());
  std::string wire;
  codec::PutFields(&wire, *a);
  codec::PutFields(&wire, *b);

  std::string_view cursor = wire;
  EncryptedPostingElement pa, pb;
  ASSERT_TRUE(codec::GetFields(&cursor, &pa).ok());
  ASSERT_TRUE(codec::GetFields(&cursor, &pb).ok());
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(pa.group, 1u);
  EXPECT_EQ(pb.group, 2u);
}

TEST_F(PostingElementTest, DecodeElementRejectsTruncation) {
  auto element =
      SealPostingElement(PostingPayload{3, 4, 0.25}, 1, 0.875, &keys_);
  ASSERT_TRUE(element.ok());
  std::string wire = codec::Encode(*element);
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_TRUE(codec::Decode<EncryptedPostingElement>(wire.substr(0, n))
                    .status()
                    .IsCorruption())
        << n;
  }
}

}  // namespace
}  // namespace zr::zerber
