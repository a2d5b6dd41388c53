#include "crypto/ctr.h"

#include <gtest/gtest.h>

#include <string>

#include "crypto/aes.h"

namespace zr::crypto {
namespace {

const std::string kEncKey(16, 'e');
const std::string kMacKey(32, 'm');
const Aes kAes = Aes::Create(kEncKey).value();
const SealingKey kKey = SealingKey::Create(kEncKey, kMacKey).value();

TEST(CtrTest, TransformIsItsOwnInverse) {
  std::string plain = "confidential posting element payload";
  std::string ct = CtrTransform(kAes, 42, plain);
  EXPECT_NE(ct, plain);
  EXPECT_EQ(CtrTransform(kAes, 42, ct), plain);
}

TEST(CtrTest, EmptyInput) {
  EXPECT_TRUE(CtrTransform(kAes, 1, "").empty());
}

TEST(CtrTest, KeystreamMatchesManualAesOfCounterBlock) {
  // Encrypting zeros exposes the raw keystream; its first block must equal
  // AES_k(nonce || 0) computed directly.
  const uint64_t nonce = 0x0102030405060708ULL;
  std::string ct = CtrTransform(kAes, nonce, std::string(16, '\0'));

  auto aes = Aes::Create(kEncKey);
  ASSERT_TRUE(aes.ok());
  AesBlock counter{};
  for (int i = 0; i < 8; ++i) {
    counter[i] = static_cast<uint8_t>(nonce >> (56 - 8 * i));
    counter[8 + i] = 0;
  }
  aes->EncryptBlock(&counter);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(ct[i]), counter[i]) << "byte " << i;
  }
}

TEST(CtrTest, DifferentNoncesProduceDifferentCiphertext) {
  std::string plain(64, 'p');
  EXPECT_NE(CtrTransform(kAes, 1, plain), CtrTransform(kAes, 2, plain));
}

TEST(CtrTest, NonBlockAlignedLengths) {
  for (size_t len : {1u, 15u, 16u, 17u, 33u, 100u}) {
    std::string plain(len, 'z');
    std::string ct = CtrTransform(kAes, 7, plain);
    EXPECT_EQ(ct.size(), len);
    EXPECT_EQ(CtrTransform(kAes, 7, ct), plain);
  }
}

TEST(SealTest, InvalidKeyRejected) {
  EXPECT_TRUE(SealingKey::Create("bad", kMacKey).status().IsInvalidArgument());
}

TEST(SealTest, RoundTrip) {
  std::string plain = "term=42 doc=7 score=0.25";
  std::string sealed = Seal(kKey, 99, plain);
  EXPECT_EQ(sealed.size(), kSealNonceSize + plain.size() + kSealTagSize);
  auto opened = Open(kKey, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plain);
}

TEST(SealTest, EmptyPlaintextRoundTrip) {
  auto opened = Open(kKey, Seal(kKey, 5, ""));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST(SealTest, TamperedCiphertextDetected) {
  std::string corrupted = Seal(kKey, 3, "payload bytes here");
  corrupted[kSealNonceSize + 2] ^= 0x01;  // flip one ciphertext bit
  EXPECT_TRUE(Open(kKey, corrupted).status().IsCorruption());
}

TEST(SealTest, TamperedNonceDetected) {
  std::string corrupted = Seal(kKey, 3, "payload");
  corrupted[0] ^= 0xff;
  EXPECT_TRUE(Open(kKey, corrupted).status().IsCorruption());
}

TEST(SealTest, TamperedTagDetected) {
  std::string corrupted = Seal(kKey, 3, "payload");
  corrupted.back() = static_cast<char>(corrupted.back() ^ 0x80);
  EXPECT_TRUE(Open(kKey, corrupted).status().IsCorruption());
}

TEST(SealTest, TruncatedMessageDetected) {
  std::string sealed = Seal(kKey, 3, "payload");
  EXPECT_TRUE(Open(kKey, sealed.substr(0, 10)).status().IsCorruption());
  EXPECT_TRUE(Open(kKey, "").status().IsCorruption());
}

TEST(SealTest, WrongMacKeyRejected) {
  std::string sealed = Seal(kKey, 3, "payload");
  SealingKey other_mac =
      SealingKey::Create(kEncKey, std::string(32, 'x')).value();
  EXPECT_TRUE(Open(other_mac, sealed).status().IsCorruption());
}

TEST(SealTest, WrongEncKeyYieldsGarbageButValidTagFails) {
  // Wrong enc key with right mac key: tag still verifies (it covers
  // ciphertext), but decryption yields garbage != plaintext. This documents
  // why enc and mac keys must be managed together per group.
  std::string sealed = Seal(kKey, 3, "payload");
  SealingKey other_enc =
      SealingKey::Create(std::string(16, 'q'), kMacKey).value();
  auto opened = Open(other_enc, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_NE(*opened, "payload");
}

}  // namespace
}  // namespace zr::crypto
