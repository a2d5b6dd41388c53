#include "crypto/keys.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/ctr.h"
#include "util/stats.h"

namespace zr::crypto {
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

// Golden values of the KeyStore's SHA-256 consumers: the directory key's
// pseudonyms and deterministic units, and a group's derived subkeys. They
// were captured with the portable block routines alone. Every host, with or
// without AES-NI and SHA-NI, must reproduce them, or elements sealed on one
// host would not open on another.
TEST(KeyStoreGoldenTest, DerivedValuesAreByteIdentical) {
  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(1).ok());
  EXPECT_EQ(ks.TermPseudonym("apple"), 0x47564a7920daeb97ULL);
  EXPECT_EQ(ks.DeterministicUnit("apple", 42), 0x1.667558d2f61f6p-2);
  auto keys = ks.GetGroupKeys(1);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(HexOf(keys->enc_key), "10ecb3499ad0988105fd08260f35fac4");
  EXPECT_EQ(HexOf(keys->mac_key),
            "650edef8e633f3a64135e33c07705ef1"
            "4d5f7e578868ee14b6f61bba89db915c");
}

TEST(KeyStoreTest, CreateGroupOnceOnly) {
  KeyStore ks("seed");
  EXPECT_TRUE(ks.CreateGroup(1).ok());
  EXPECT_TRUE(ks.CreateGroup(1).IsAlreadyExists());
  EXPECT_TRUE(ks.HasGroup(1));
  EXPECT_FALSE(ks.HasGroup(2));
}

TEST(KeyStoreTest, GroupKeysHaveExpectedSizes) {
  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(5).ok());
  auto keys = ks.GetGroupKeys(5);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->enc_key.size(), 16u);  // AES-128
  EXPECT_EQ(keys->mac_key.size(), 32u);  // HMAC-SHA-256
  EXPECT_NE(keys->enc_key, keys->mac_key.substr(0, 16));
}

TEST(KeyStoreTest, UnknownGroupIsNotFound) {
  KeyStore ks("seed");
  EXPECT_TRUE(ks.GetGroupKeys(9).status().IsNotFound());
}

TEST(KeyStoreTest, GroupsHaveIndependentKeys) {
  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(1).ok());
  ASSERT_TRUE(ks.CreateGroup(2).ok());
  auto k1 = ks.GetGroupKeys(1);
  auto k2 = ks.GetGroupKeys(2);
  ASSERT_TRUE(k1.ok() && k2.ok());
  EXPECT_NE(k1->enc_key, k2->enc_key);
  EXPECT_NE(k1->mac_key, k2->mac_key);
}

TEST(KeyStoreTest, DeterministicAcrossInstancesWithSameSeed) {
  KeyStore a("same-seed"), b("same-seed");
  ASSERT_TRUE(a.CreateGroup(1).ok());
  ASSERT_TRUE(b.CreateGroup(1).ok());
  EXPECT_EQ(a.GetGroupKeys(1)->enc_key, b.GetGroupKeys(1)->enc_key);
  EXPECT_EQ(a.TermPseudonym("hello"), b.TermPseudonym("hello"));
}

TEST(KeyStoreTest, DifferentSeedsDifferentKeys) {
  KeyStore a("seed-1"), b("seed-2");
  ASSERT_TRUE(a.CreateGroup(1).ok());
  ASSERT_TRUE(b.CreateGroup(1).ok());
  EXPECT_NE(a.GetGroupKeys(1)->enc_key, b.GetGroupKeys(1)->enc_key);
  EXPECT_NE(a.TermPseudonym("hello"), b.TermPseudonym("hello"));
}

TEST(KeyStoreTest, TermPseudonymsDistinctPerTerm) {
  KeyStore ks("seed");
  std::set<uint64_t> pseudonyms;
  for (int i = 0; i < 1000; ++i) {
    pseudonyms.insert(ks.TermPseudonym("term" + std::to_string(i)));
  }
  EXPECT_EQ(pseudonyms.size(), 1000u);
}

TEST(KeyStoreTest, DeterministicUnitInRangeAndUniform) {
  KeyStore ks("seed");
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    double v = ks.DeterministicUnit("rare-term", static_cast<uint64_t>(i));
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    values.push_back(v);
  }
  // Pseudo-random TRS values for unseen terms must look uniform: that is the
  // paper's Section 5.1.1 requirement.
  EXPECT_LT(KolmogorovSmirnovUniform(values), 0.03);
}

TEST(KeyStoreTest, DeterministicUnitIsStable) {
  KeyStore ks("seed");
  EXPECT_EQ(ks.DeterministicUnit("t", 1), ks.DeterministicUnit("t", 1));
  EXPECT_NE(ks.DeterministicUnit("t", 1), ks.DeterministicUnit("t", 2));
  EXPECT_NE(ks.DeterministicUnit("t", 1), ks.DeterministicUnit("u", 1));
}

TEST(KeyStoreTest, SealingKeyOfUnknownGroupIsNotFound) {
  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(1).ok());
  EXPECT_TRUE(ks.SealingKeyOf(9).status().IsNotFound());
}

TEST(KeyStoreTest, SealingKeyIsPreparedFromGroupKeys) {
  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(1).ok());
  auto prepared = ks.SealingKeyOf(1);
  auto keys = ks.GetGroupKeys(1);
  ASSERT_TRUE(prepared.ok() && keys.ok());
  auto rebuilt = SealingKey::Create(keys->enc_key, keys->mac_key);
  ASSERT_TRUE(rebuilt.ok());
  const std::string sealed = Seal(**prepared, 17, "payload");
  EXPECT_EQ(sealed, Seal(*rebuilt, 17, "payload"));
  auto opened = Open(*rebuilt, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, "payload");
}

TEST(KeyStoreTest, SealingKeyPointerSurvivesLaterGroups) {
  KeyStore ks("seed");
  ASSERT_TRUE(ks.CreateGroup(1).ok());
  auto first = ks.SealingKeyOf(1);
  ASSERT_TRUE(first.ok());
  for (GroupId g = 2; g < 50; ++g) ASSERT_TRUE(ks.CreateGroup(g).ok());
  auto again = ks.SealingKeyOf(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*first, *again);
}

// Every group is registered first; then 4 threads seal and open through the
// one store at once, as load::LoadDriver workers do. Run under TSan in CI.
TEST(KeyStoreTest, ConcurrentSealAndOpenThroughOneStore) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  constexpr GroupId kGroups = 3;
  KeyStore ks("seed");
  for (GroupId g = 0; g < kGroups; ++g) ASSERT_TRUE(ks.CreateGroup(g).ok());

  struct Sealed {
    GroupId group;
    std::string plaintext;
    std::string bytes;
  };
  std::vector<std::vector<Sealed>> per_thread(kThreads);
  std::vector<int> open_failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ks, &per_thread, &open_failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const GroupId group = static_cast<GroupId>(i) % kGroups;
        const SealingKey* key = ks.SealingKeyOf(group).value();
        std::string plaintext = std::to_string(t * kPerThread + i);
        std::string bytes = Seal(*key, ks.NextNonce(), plaintext);
        // Open right away, while the other threads keep sealing.
        auto opened = Open(*key, bytes);
        if (!opened.ok() || *opened != plaintext) ++open_failures[t];
        per_thread[t].push_back({group, std::move(plaintext), std::move(bytes)});
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::set<std::string> nonces;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(open_failures[t], 0) << "thread " << t;
    for (const Sealed& s : per_thread[t]) {
      nonces.insert(s.bytes.substr(0, kSealNonceSize));
      auto opened = Open(*ks.SealingKeyOf(s.group).value(), s.bytes);
      ASSERT_TRUE(opened.ok());
      EXPECT_EQ(*opened, s.plaintext);
    }
  }
  EXPECT_EQ(nonces.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(KeyStoreTest, NoncesNeverRepeat) {
  KeyStore ks("seed");
  std::set<uint64_t> nonces;
  for (int i = 0; i < 10000; ++i) nonces.insert(ks.NextNonce());
  EXPECT_EQ(nonces.size(), 10000u);
}

}  // namespace
}  // namespace zr::crypto
