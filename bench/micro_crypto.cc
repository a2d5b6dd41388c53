// Microbenchmarks: crypto substrate throughput (google-benchmark).
//
// Not a paper figure; documents implementation speed and the per-element
// cost the client pays. The BM_*PreparedKey benches time crypto::Seal/Open
// alone under a key prepared once; the BM_KeyStore* benches time the path a
// client takes for each posting element, zerber::SealPostingElement /
// OpenPostingElement, which also look the group's key up in a KeyStore and
// (de)serialize the payload.
//
// BM_AesEncryptBlock and BM_Sha256Block time the block routine CPUID chose
// for this host; the *Portable benches beside them time the portable
// routine. The context keys crypto.aes and crypto.sha256 name the chosen
// routine, so a report says which path it measured.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ctr.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/internal.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "zerber/posting_element.h"

namespace {

void BM_AesEncryptBlock(benchmark::State& state) {
  auto aes = zr::crypto::Aes::Create(std::string(16, 'k'));
  zr::crypto::AesBlock block{};
  for (auto _ : state) {
    aes->EncryptBlock(&block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void BM_AesEncryptBlockPortable(benchmark::State& state) {
  auto aes = zr::crypto::Aes::Create(std::string(16, 'k'));
  zr::crypto::AesBlock block{};
  for (auto _ : state) {
    zr::crypto::internal::AesEncryptBlockPortable(aes->round_keys(),
                                                  aes->rounds(), block.data());
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlockPortable);

// One SHA-256 compression with `routine`.
void Sha256Block(benchmark::State& state,
                 zr::crypto::internal::Sha256BlockRoutine routine) {
  uint32_t digest_state[8] = {};
  uint8_t block[64] = {};
  for (auto _ : state) {
    routine(digest_state, block);
    benchmark::DoNotOptimize(digest_state);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}

void BM_Sha256Block(benchmark::State& state) {
  zr::crypto::internal::Sha256BlockRoutine routine =
      zr::crypto::internal::ShaNiRoutine();
  Sha256Block(state, routine != nullptr
                         ? routine
                         : &zr::crypto::internal::Sha256ProcessBlockPortable);
}
BENCHMARK(BM_Sha256Block);

void BM_Sha256BlockPortable(benchmark::State& state) {
  Sha256Block(state, &zr::crypto::internal::Sha256ProcessBlockPortable);
}
BENCHMARK(BM_Sha256BlockPortable);

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto digest = zr::crypto::Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  std::string key(32, 'k');
  std::string data(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    auto mac = zr::crypto::HmacSha256(key, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(1024);

void BM_SealPreparedKey(benchmark::State& state) {
  auto key = zr::crypto::SealingKey::Create(std::string(16, 'e'),
                                            std::string(32, 'm'));
  std::string payload(static_cast<size_t>(state.range(0)), 'p');
  uint64_t nonce = 0;
  for (auto _ : state) {
    auto sealed = zr::crypto::Seal(*key, nonce++, payload);
    benchmark::DoNotOptimize(sealed);
  }
}
BENCHMARK(BM_SealPreparedKey)->Arg(13)->Arg(64);

void BM_OpenPreparedKey(benchmark::State& state) {
  auto key = zr::crypto::SealingKey::Create(std::string(16, 'e'),
                                            std::string(32, 'm'));
  std::string sealed = zr::crypto::Seal(*key, 7, "typical-payload");
  for (auto _ : state) {
    auto opened = zr::crypto::Open(*key, sealed);
    benchmark::DoNotOptimize(opened);
  }
}
BENCHMARK(BM_OpenPreparedKey);

// A store with as many groups as the StudIP preset at scale 1 (60), so the
// per-element key lookup searches a realistically sized map.
constexpr zr::crypto::GroupId kBenchGroups = 60;

void MakeBenchGroups(zr::crypto::KeyStore* keys) {
  for (zr::crypto::GroupId g = 0; g < kBenchGroups; ++g) {
    (void)keys->CreateGroup(g);
  }
}

void BM_KeyStoreSealPostingElement(benchmark::State& state) {
  zr::crypto::KeyStore keys("bench");
  MakeBenchGroups(&keys);
  uint32_t i = 0;
  for (auto _ : state) {
    auto element = zr::zerber::SealPostingElement(
        zr::zerber::PostingPayload{i, i * 7, 0.25}, i % kBenchGroups, 0.5,
        &keys);
    benchmark::DoNotOptimize(element);
    ++i;
  }
}
BENCHMARK(BM_KeyStoreSealPostingElement);

void BM_KeyStoreOpenPostingElement(benchmark::State& state) {
  zr::crypto::KeyStore keys("bench");
  MakeBenchGroups(&keys);
  std::vector<zr::zerber::EncryptedPostingElement> elements;
  for (uint32_t i = 0; i < 256; ++i) {
    elements.push_back(zr::zerber::SealPostingElement(
                           zr::zerber::PostingPayload{i, i * 7, 0.25},
                           i % kBenchGroups, 0.5, &keys)
                           .value());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto payload =
        zr::zerber::OpenPostingElement(elements[i++ % elements.size()], keys);
    benchmark::DoNotOptimize(payload);
  }
}
BENCHMARK(BM_KeyStoreOpenPostingElement);

void BM_DrbgBytes(benchmark::State& state) {
  zr::crypto::Drbg drbg("bench");
  std::string out;
  for (auto _ : state) {
    out.clear();
    drbg.Generate(static_cast<size_t>(state.range(0)), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DrbgBytes)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "crypto.aes", zr::crypto::internal::AesNiRoutine() != nullptr
                        ? "aes-ni"
                        : "portable");
  benchmark::AddCustomContext(
      "crypto.sha256", zr::crypto::internal::ShaNiRoutine() != nullptr
                           ? "sha-ni"
                           : "portable");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
