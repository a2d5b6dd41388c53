#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <string>

namespace zr::crypto {
namespace {

std::string HmacHex(std::string_view key, std::string_view msg) {
  return DigestToHex(HmacSha256(key, msg));
}

// RFC 4231 test vectors for HMAC-SHA-256.
TEST(HmacTest, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(HmacHex(key, "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HmacHex("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  std::string key(20, '\xaa');
  std::string data(50, '\xdd');
  EXPECT_EQ(HmacHex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LargerThanBlockSizeKey) {
  std::string key(131, '\xaa');
  EXPECT_EQ(HmacHex(key, "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LargerThanBlockSizeKeyAndData) {
  std::string key(131, '\xaa');
  EXPECT_EQ(
      HmacHex(key,
              "This is a test using a larger than block-size key and a larger "
              "than block-size data. The key needs to be hashed before being "
              "used by the HMAC algorithm."),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// The prepared key must give the RFC 4231 answers too, on every call, and
// agree with the one-shot function — including the over-64-byte keys,
// which HmacKey hashes before building its midstates.
TEST(HmacKeyTest, MatchesRfc4231AndOneShot) {
  std::string case4_key;
  for (int i = 1; i <= 25; ++i) case4_key.push_back(static_cast<char>(i));
  const std::string large_key(131, '\xaa');
  const struct {
    std::string key;
    std::string message;
    const char* hex;
  } kVectors[] = {
      {std::string(20, '\x0b'), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::string(20, '\xaa'), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {case4_key, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {large_key, "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {large_key,
       "This is a test using a larger than block-size key and a larger "
       "than block-size data. The key needs to be hashed before being "
       "used by the HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const auto& v : kVectors) {
    const HmacKey prepared(v.key);
    EXPECT_EQ(DigestToHex(prepared.Mac(v.message)), v.hex);
    EXPECT_EQ(DigestToHex(prepared.Mac(v.message)), v.hex) << "second call";
    EXPECT_EQ(DigestToHex(prepared.Mac(v.message)),
              HmacHex(v.key, v.message));
  }
}

TEST(HmacTest, KeySensitivity) {
  EXPECT_NE(HmacHex("key1", "message"), HmacHex("key2", "message"));
}

TEST(HmacTest, MessageSensitivity) {
  EXPECT_NE(HmacHex("key", "message1"), HmacHex("key", "message2"));
}

TEST(DeriveKeyTest, DistinctLabelsYieldIndependentKeys) {
  Sha256Digest enc = DeriveKey("master", "enc", "ctx");
  Sha256Digest mac = DeriveKey("master", "mac", "ctx");
  EXPECT_NE(DigestToHex(enc), DigestToHex(mac));
}

TEST(DeriveKeyTest, ContextSeparation) {
  EXPECT_NE(DigestToHex(DeriveKey("master", "enc", "a")),
            DigestToHex(DeriveKey("master", "enc", "b")));
}

TEST(DeriveKeyTest, LabelContextBoundaryUnambiguous) {
  // ("ab", "c") and ("a", "bc") must not collide thanks to the \0 separator.
  EXPECT_NE(DigestToHex(DeriveKey("m", "ab", "c")),
            DigestToHex(DeriveKey("m", "a", "bc")));
}

TEST(HmacTrunc64Test, MatchesFullDigestPrefix) {
  Sha256Digest full = HmacSha256("k", "m");
  uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected = (expected << 8) | full[i];
  EXPECT_EQ(HmacKey("k").MacTrunc64("m"), expected);
}

TEST(HmacTrunc64Test, Deterministic) {
  const HmacKey key("key");
  EXPECT_EQ(key.MacTrunc64("msg"), HmacKey("key").MacTrunc64("msg"));
  EXPECT_NE(key.MacTrunc64("msg"), key.MacTrunc64("msh"));
}

TEST(DigestToKeyTest, ProducesRawBytes) {
  Sha256Digest d = Sha256::Hash("x");
  std::string key = DigestToKey(d);
  ASSERT_EQ(key.size(), 32u);
  EXPECT_EQ(static_cast<uint8_t>(key[0]), d[0]);
  EXPECT_EQ(static_cast<uint8_t>(key[31]), d[31]);
}

}  // namespace
}  // namespace zr::crypto
