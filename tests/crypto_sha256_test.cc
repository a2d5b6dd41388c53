#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>

namespace zr::crypto {
namespace {

std::string HexOf(std::string_view data) {
  return DigestToHex(Sha256::Hash(data));
}

// NIST FIPS 180-4 / standard known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexOf(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexOf("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, FourBlock896BitMessage) {
  EXPECT_EQ(HexOf("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Test, OneMillionAs) {
  EXPECT_EQ(HexOf(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and at odd "
      "chunk boundaries to exercise the buffering logic of the hasher.";
  Sha256 h;
  // Feed in awkward chunk sizes straddling the 64-byte block boundary.
  size_t pos = 0;
  size_t chunks[] = {1, 3, 7, 13, 31, 61, 64, 100};
  size_t i = 0;
  while (pos < msg.size()) {
    size_t n = std::min(chunks[i % 8], msg.size() - pos);
    h.Update(msg.substr(pos, n));
    pos += n;
    ++i;
  }
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("garbage");
  (void)h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(DigestToHex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, ExactBlockSizeMessage) {
  // 64 bytes: padding must spill into a second block.
  std::string msg(64, 'x');
  Sha256 a;
  a.Update(msg);
  Sha256 b;
  for (char c : msg) b.Update(std::string(1, c));
  EXPECT_EQ(DigestToHex(a.Finish()), DigestToHex(b.Finish()));
}

// Messages of n 'a' bytes around the padding boundaries: 55 bytes is the
// longest that pads within its block, 56..63 push the length into a second
// block, and 119/120 repeat both cases one block later. Digests computed
// offline with Python's hashlib.sha256(b"a" * n).
TEST(Sha256Test, PaddingBoundaryKnownAnswers) {
  const struct {
    size_t length;
    const char* hex;
  } kVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& v : kVectors) {
    EXPECT_EQ(HexOf(std::string(v.length, 'a')), v.hex) << v.length << " bytes";
  }
}

TEST(Sha256Test, EverySplitPointEqualsOneShot) {
  std::string msg;
  for (size_t i = 0; i < 129; ++i) msg.push_back(static_cast<char>(i * 37 + 11));
  for (size_t len = 0; len <= msg.size(); ++len) {
    std::string_view prefix(msg.data(), len);
    const std::string want = HexOf(prefix);
    for (size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.Update(prefix.substr(0, split));
      h.Update(prefix.substr(split));
      ASSERT_EQ(DigestToHex(h.Finish()), want)
          << "length " << len << ", split at " << split;
    }
  }
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(HexOf("abc"), HexOf("abd"));
  EXPECT_NE(HexOf("abc"), HexOf("abc "));
}

TEST(Sha256Test, DigestToHexFormat) {
  Sha256Digest d{};
  d[0] = 0x01;
  d[31] = 0xff;
  std::string hex = DigestToHex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 2), "01");
  EXPECT_EQ(hex.substr(62, 2), "ff");
}

}  // namespace
}  // namespace zr::crypto
