// The portable and hardware block routines behind crypto::Aes and
// crypto::Sha256 (crypto/internal.h) must produce the same bytes: on the
// known answers of crypto_aes_test and crypto_sha256_test, and on random
// inputs. The hardware half skips, naming the instruction, on a CPU without
// it; the portable half runs everywhere.

#include "crypto/internal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <latch>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ctr.h"

namespace zr::crypto {
namespace {

// Defined first, so it runs first: these threads make the process's first
// Seal and Open calls, and so the first calls into Aes and Sha256, which
// pick their block routine on first use.
TEST(CryptoHwTest, ConcurrentFirstSealAndOpen) {
  constexpr int kThreads = 8;
  const std::string enc_key(16, 'e');
  const std::string mac_key(32, 'm');
  auto plaintext = [](int t) { return "posting element " + std::to_string(t); };

  std::latch start(kThreads);
  std::vector<std::string> sealed(kThreads);
  std::vector<std::string> opened(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Preparing the HMAC key is the thread's first SHA-256 block; Seal
      // runs its first AES block.
      const SealingKey key = SealingKey::Create(enc_key, mac_key).value();
      sealed[t] = Seal(key, static_cast<uint64_t>(t), plaintext(t));
      opened[t] = Open(key, sealed[t]).value_or("open failed");
    });
  }
  for (std::thread& thread : threads) thread.join();

  const SealingKey key = SealingKey::Create(enc_key, mac_key).value();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sealed[t], Seal(key, static_cast<uint64_t>(t), plaintext(t)))
        << "thread " << t;
    EXPECT_EQ(opened[t], plaintext(t)) << "thread " << t;
  }
}

std::string HexDecode(std::string_view hex) {
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

std::string HexEncode(const uint8_t* data, size_t size) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

struct AesVector {
  const char* key;
  const char* plaintext;
  const char* ciphertext;
};

constexpr AesVector kAesVectors[] = {
    // FIPS-197 Appendix C.1 (AES-128) and C.3 (AES-256).
    {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
    {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
    // SP 800-38A F.1.1 ECB-AES128, blocks 1-4.
    {"2b7e151628aed2a6abf7158809cf4f3c", "6bc1bee22e409f96e93d7e117393172a",
     "3ad77bb40d7a3660a89ecaf32466ef97"},
    {"2b7e151628aed2a6abf7158809cf4f3c", "ae2d8a571e03ac9c9eb76fac45af8e51",
     "f5d3d58503b9699de785895a96fdbaaf"},
    {"2b7e151628aed2a6abf7158809cf4f3c", "30c81c46a35ce411e5fbc1191a0a52ef",
     "43b1cd7f598ece23881b00e3ed030688"},
    {"2b7e151628aed2a6abf7158809cf4f3c", "f69f2445df4f9b17ad2b417be66c3710",
     "7b0c785e27e8ad3f8223207104725dd4"},
    // SP 800-38A F.1.5 ECB-AES256, blocks 1-4.
    {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "6bc1bee22e409f96e93d7e117393172a", "f3eed1bdb5d2a03c064b5a7e3db181f8"},
    {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "ae2d8a571e03ac9c9eb76fac45af8e51", "591ccb10d410ed26dc5ba74a31362870"},
    {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "30c81c46a35ce411e5fbc1191a0a52ef", "b6ed21b99ca6f4f9f153e7b1beafed1d"},
    {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "f69f2445df4f9b17ad2b417be66c3710", "23304b7a39f9f3ff067d8d8f9e24ecc7"},
};

// Encrypts the vector's plaintext under its key with `routine`.
std::string AesHex(internal::AesBlockRoutine routine, const AesVector& v) {
  const Aes aes = Aes::Create(HexDecode(v.key)).value();
  const std::string plaintext = HexDecode(v.plaintext);
  AesBlock block{};
  std::copy(plaintext.begin(), plaintext.end(), block.begin());
  routine(aes.round_keys(), aes.rounds(), block.data());
  return HexEncode(block.data(), block.size());
}

void ExpectAesKnownAnswers(internal::AesBlockRoutine routine) {
  for (const AesVector& v : kAesVectors) {
    EXPECT_EQ(AesHex(routine, v), v.ciphertext)
        << "key " << v.key << ", plaintext " << v.plaintext;
  }
}

TEST(CryptoHwTest, PortableAesMeetsKnownAnswers) {
  ExpectAesKnownAnswers(&internal::AesEncryptBlockPortable);
}

TEST(CryptoHwTest, AesNiMeetsKnownAnswers) {
  const internal::AesBlockRoutine aes_ni = internal::AesNiRoutine();
  if (aes_ni == nullptr) GTEST_SKIP() << "CPU lacks AES-NI";
  ExpectAesKnownAnswers(aes_ni);
}

TEST(CryptoHwTest, AesNiMatchesPortableOnRandomKeysAndBlocks) {
  const internal::AesBlockRoutine aes_ni = internal::AesNiRoutine();
  if (aes_ni == nullptr) GTEST_SKIP() << "CPU lacks AES-NI";
  std::mt19937_64 rng(0xae5);
  auto byte = [&rng] { return static_cast<uint8_t>(rng()); };
  for (size_t key_size : {16, 32}) {
    for (int i = 0; i < 10000; ++i) {
      std::string key(key_size, '\0');
      for (char& c : key) c = static_cast<char>(byte());
      const Aes aes = Aes::Create(key).value();
      AesBlock portable{};
      for (uint8_t& b : portable) b = byte();
      AesBlock hardware = portable;
      AesBlock dispatched = portable;
      internal::AesEncryptBlockPortable(aes.round_keys(), aes.rounds(),
                                        portable.data());
      aes_ni(aes.round_keys(), aes.rounds(), hardware.data());
      aes.EncryptBlock(&dispatched);
      ASSERT_EQ(hardware, portable) << key_size << "-byte key, pair " << i;
      ASSERT_EQ(dispatched, portable) << key_size << "-byte key, pair " << i;
    }
  }
}

// SHA-256 of `message`, padded here and compressed block by block with
// `routine`, so the digest depends on nothing but the routine.
std::string Sha256Hex(internal::Sha256BlockRoutine routine,
                      std::string_view message) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string padded(message);
  padded.push_back('\x80');
  padded.append((119 - message.size() % 64) % 64, '\0');
  const uint64_t bits = static_cast<uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<char>(bits >> (8 * i)));
  }
  for (size_t offset = 0; offset < padded.size(); offset += 64) {
    routine(state, reinterpret_cast<const uint8_t*>(padded.data() + offset));
  }
  uint8_t digest[32] = {};
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest[4 * i + j] = static_cast<uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return HexEncode(digest, sizeof(digest));
}

void ExpectSha256KnownAnswers(internal::Sha256BlockRoutine routine) {
  // NIST FIPS 180-4 examples.
  EXPECT_EQ(Sha256Hex(routine, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex(routine, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256Hex(routine,
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(
      Sha256Hex(routine,
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(Sha256Hex(routine, std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  // The padding boundaries: n bytes of 'a' (hashlib.sha256(b"a" * n)).
  const struct {
    size_t length;
    const char* hex;
  } kPaddingVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& v : kPaddingVectors) {
    EXPECT_EQ(Sha256Hex(routine, std::string(v.length, 'a')), v.hex)
        << v.length << " bytes";
  }
}

TEST(CryptoHwTest, PortableSha256MeetsKnownAnswers) {
  ExpectSha256KnownAnswers(&internal::Sha256ProcessBlockPortable);
}

TEST(CryptoHwTest, ShaNiMeetsKnownAnswers) {
  const internal::Sha256BlockRoutine sha_ni = internal::ShaNiRoutine();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI, SSSE3 or SSE4.1";
  ExpectSha256KnownAnswers(sha_ni);
}

TEST(CryptoHwTest, ShaNiMatchesPortableOnRandomStatesAndBlocks) {
  const internal::Sha256BlockRoutine sha_ni = internal::ShaNiRoutine();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI, SSSE3 or SSE4.1";
  std::mt19937_64 rng(0x5a256);
  for (int i = 0; i < 10000; ++i) {
    std::array<uint32_t, 8> portable{};
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng());
    std::array<uint8_t, 64> block{};
    for (uint8_t& b : block) b = static_cast<uint8_t>(rng());
    std::array<uint32_t, 8> hardware = portable;
    internal::Sha256ProcessBlockPortable(portable.data(), block.data());
    sha_ni(hardware.data(), block.data());
    ASSERT_EQ(hardware, portable) << "compression " << i;
  }
}

}  // namespace
}  // namespace zr::crypto
