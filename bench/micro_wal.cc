// Microbenchmarks: write-ahead log of the durable storage engine
// (google-benchmark).
//
// Two questions the store subsystem's design hinges on:
//
//  1. Append throughput by sync mode — how expensive is an acked-durable
//     append (kGroupCommit: a lone writer pays one fsync per record,
//     concurrent writers share one) versus no sync at all (kNone:
//     page-cache upper bound)? Group commit is run at 1/2/4/8 writer
//     threads; its advantage grows with concurrency since the fsync
//     amortizes across the batch.
//
//  2. Recovery time vs log length — ReadWal + replay into an IndexServer
//     for logs of 1k/4k/16k/64k records, i.e. the restart cost a given
//     snapshot_threshold_bytes buys.
//
//   ./micro_wal --benchmark_filter=Append
//   ./micro_wal --benchmark_filter=Recover

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "crypto/keys.h"
#include "store/wal.h"
#include "zerber/posting_element.h"
#include "zerber/zerber_index.h"

namespace {

using namespace zr;
namespace fs = std::filesystem;

std::string BenchPath(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

/// One representative sealed insert record (the dominant record type:
/// ~70-100 wire bytes depending on payload).
store::WalRecord MakeInsertRecord(crypto::KeyStore* keys, uint64_t handle) {
  auto element = zerber::SealPostingElement(
      zerber::PostingPayload{7, static_cast<text::DocId>(handle), 0.42}, 1,
      0.37, keys);
  store::WalRecord record;
  record.type = store::WalRecord::Type::kInsert;
  record.list = static_cast<uint32_t>(handle % 64);
  record.element = *element;
  record.element.handle = handle;
  return record;
}

void BM_AppendSyncMode(benchmark::State& state) {
  store::WalSyncMode mode = static_cast<store::WalSyncMode>(state.range(0));
  static crypto::KeyStore* keys = [] {
    auto* ks = new crypto::KeyStore("wal-bench");
    (void)ks->CreateGroup(1);
    return ks;
  }();
  static std::unique_ptr<store::WalWriter> writer;
  static store::WalRecord record;
  if (state.thread_index() == 0) {
    record = MakeInsertRecord(keys, 1);
    std::string path = BenchPath("zr_micro_wal_append.log");
    fs::remove(path);
    auto opened = store::WalWriter::Open(path, mode);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    writer = std::move(*opened);
  }
  for (auto _ : state) {
    Status s = writer->Append(record);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(store::WalSyncModeName(mode));
    writer.reset();
    fs::remove(BenchPath("zr_micro_wal_append.log"));
  }
}
// Single-writer baselines for both modes...
BENCHMARK(BM_AppendSyncMode)
    ->Arg(static_cast<int>(store::WalSyncMode::kNone))
    ->Arg(static_cast<int>(store::WalSyncMode::kGroupCommit))
    ->UseRealTime();
// ...and group commit under write concurrency (the fsync amortizes).
BENCHMARK(BM_AppendSyncMode)
    ->Arg(static_cast<int>(store::WalSyncMode::kGroupCommit))
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_RecoverFromLog(benchmark::State& state) {
  const size_t num_records = static_cast<size_t>(state.range(0));
  crypto::KeyStore keys("wal-bench-recover");
  (void)keys.CreateGroup(1);

  // Build the log once per arg: num_records inserts across 64 lists.
  std::string path = BenchPath("zr_micro_wal_recover.log");
  fs::remove(path);
  {
    auto writer = store::WalWriter::Open(path, store::WalSyncMode::kNone);
    if (!writer.ok()) {
      state.SkipWithError(writer.status().ToString().c_str());
      return;
    }
    store::WalRecord record = MakeInsertRecord(&keys, 1);
    for (size_t i = 0; i < num_records; ++i) {
      record.element.handle = i + 1;
      record.list = static_cast<uint32_t>(i % 64);
      if (!(*writer)->Append(record).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
  }

  uint64_t bytes = fs::file_size(path);
  for (auto _ : state) {
    auto scanned = store::ReadWal(path);
    if (!scanned.ok() || scanned->records.size() != num_records) {
      state.SkipWithError("scan failed");
      break;
    }
    zerber::IndexServer server(64, zerber::Placement::kTrsSorted, 1);
    // Single-threaded replay benchmark: the server is trivially quiescent.
    zr::QuiescenceLock quiesced(server.quiescence());
    for (auto& record : scanned->records) {
      if (!server.ReplayInsert(record.list, std::move(record.element)).ok()) {
        state.SkipWithError("replay failed");
        break;
      }
    }
    benchmark::DoNotOptimize(server.TotalElements());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_records));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  fs::remove(path);
}
BENCHMARK(BM_RecoverFromLog)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
