// Microbenchmarks: RSTF training/evaluation, merged-list inserts and index
// server range fetches.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/rstf.h"
#include "crypto/keys.h"
#include "util/random.h"
#include "zerber/merged_list.h"
#include "zerber/posting_element.h"
#include "zerber/zerber_index.h"

namespace {

std::vector<double> Scores(size_t n) {
  zr::Rng rng(5);
  std::vector<double> scores;
  scores.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.NextDouble();
    scores.push_back(0.001 + 0.4 * u * u);
  }
  return scores;
}

void BM_RstfTrain(benchmark::State& state) {
  auto scores = Scores(static_cast<size_t>(state.range(0)));
  zr::core::RstfOptions options;
  options.sigma = 0.002;
  for (auto _ : state) {
    auto rstf = zr::core::Rstf::Train(scores, options);
    benchmark::DoNotOptimize(rstf);
  }
}
BENCHMARK(BM_RstfTrain)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RstfTransform(benchmark::State& state) {
  auto scores = Scores(static_cast<size_t>(state.range(0)));
  zr::core::RstfOptions options;
  options.sigma = 0.002;
  options.max_training_points = 1024;
  auto rstf = zr::core::Rstf::Train(scores, options);
  zr::Rng rng(7);
  for (auto _ : state) {
    double y = rstf->Transform(rng.NextDouble() * 0.4);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_RstfTransform)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RstfTransformLogistic(benchmark::State& state) {
  auto scores = Scores(1000);
  zr::core::RstfOptions options;
  options.kind = zr::core::RstfKind::kLogisticApprox;
  options.sigma = 0.002;
  auto rstf = zr::core::Rstf::Train(scores, options);
  zr::Rng rng(7);
  for (auto _ : state) {
    double y = rstf->Transform(rng.NextDouble() * 0.4);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_RstfTransformLogistic);

void BM_MergedListSortedInsert(benchmark::State& state) {
  zr::crypto::KeyStore keys("bench");
  (void)keys.CreateGroup(1);
  auto element = zr::zerber::SealPostingElement(
      zr::zerber::PostingPayload{1, 2, 0.5}, 1, 0.5, &keys);
  zr::Rng rng(9);
  zr::zerber::MergedList list;
  for (auto _ : state) {
    zr::zerber::EncryptedPostingElement e = *element;
    e.trs = rng.NextDouble();
    list.Insert(std::move(e));
    if (list.size() > 10000) {
      state.PauseTiming();
      list = zr::zerber::MergedList();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MergedListSortedInsert);

// A 30-element window of a 5,000-element list, fetched the way a query is
// served: through IndexServer::Fetch (ACL filter, exhaustion answer,
// element copies, stats).
void BM_IndexServerRangeFetch(benchmark::State& state) {
  constexpr zr::zerber::UserId kUser = 1;
  zr::crypto::KeyStore keys("bench");
  (void)keys.CreateGroup(1);
  auto element = zr::zerber::SealPostingElement(
      zr::zerber::PostingPayload{1, 2, 0.5}, 1, 0.5, &keys);
  zr::Rng rng(11);
  zr::zerber::IndexServer server(1, zr::zerber::Placement::kTrsSorted);
  {
    // Provisioning before any fetch: quiescent.
    zr::QuiescenceLock quiesced(server.quiescence());
    (void)server.acl().AddGroup(1);
    (void)server.acl().GrantMembership(kUser, 1);
  }
  for (int i = 0; i < 5000; ++i) {
    zr::zerber::EncryptedPostingElement e = *element;
    e.trs = rng.NextDouble();
    (void)server.Insert(kUser, 0, std::move(e));
  }
  for (auto _ : state) {
    auto range =
        server.Fetch(kUser, 0, static_cast<size_t>(rng.Uniform(4000)), 30);
    benchmark::DoNotOptimize(range);
  }
}
BENCHMARK(BM_IndexServerRangeFetch);

}  // namespace

BENCHMARK_MAIN();
