// Durable index server: WAL + snapshot rotation + crash recovery.
//
// The paper's deployment is a long-lived centralized index server. This
// example stands up a 2-shard durable deployment (every acked mutation
// write-ahead logged per shard, snapshots rotated on demand), runs a
// mutating workload mid-flight, then simulates a power cut — the store
// directory is cloned with a half-written record torn onto one WAL — and
// recovers it into a fresh server. Queries against the recovered server
// are byte-identical to the never-crashed one, and the torn (never acked)
// record is discarded. The storage layer never holds a decryption key.

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/pipeline.h"
#include "net/transport.h"
#include "store/durable_service.h"
#include "store/fs.h"
#include "store/wal.h"
#include "zerber/persistence.h"
#include "zerber/posting_element.h"

int main() {
  using namespace zr;
  namespace fs = std::filesystem;

  fs::path root = fs::temp_directory_path() / "zerber_r_durable_demo";
  fs::remove_all(root);
  fs::create_directories(root);
  std::string data_dir = (root / "store").string();

  // A 2-shard durable deployment: each shard keeps its own snapshot/WAL
  // pair under <data_dir>/shard-000N/.
  core::PipelineOptions options;
  options.preset = synth::TinyPreset();
  options.sigma = 0.005;
  options.build_query_log = false;
  options.build_baseline_index = false;
  options.num_shards = 2;
  options.data_dir = data_dir;
  options.wal_sync_mode = store::WalSyncMode::kGroupCommit;
  auto built = core::BuildPipeline(options);
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  core::Pipeline& p = **built;
  auto total_elements = [](store::DurableIndexService& durable) {
    unsigned long long total = 0;
    for (size_t s = 0; s < durable.num_partitions(); ++s) {
      total += durable.partition(s).TotalElements();
    }
    return total;
  };
  std::printf("durable deployment up: %zu shards, %llu elements, WAL sync %s\n",
              p.durable->num_partitions(), total_elements(*p.durable),
              store::WalSyncModeName(options.wal_sync_mode));

  // Mid-workload mutations: a handful of extra inserts (all acked, all
  // WAL-logged), then a snapshot rotation on shard 0, then more inserts
  // into the new WAL epoch.
  text::TermId term = p.corpus.vocabulary().Lookup("term3");
  if (!p.durable->RotateNow(0).ok()) return 1;
  std::printf("shard 0 rotated to snapshot epoch %llu (WAL now %llu bytes)\n",
              static_cast<unsigned long long>(p.durable->epoch(0)),
              static_cast<unsigned long long>(p.durable->wal_bytes(0)));
  for (text::DocId doc = 9000; doc < 9008; ++doc) {
    auto doc_obj = p.corpus.documents()[doc % p.corpus.documents().size()];
    if (!p.client->IndexDocument(doc_obj).ok()) return 1;
  }
  auto enriched = p.client->QueryTopK(term, 5);
  if (!enriched.ok()) return 1;
  std::printf("mid-workload: %zu results for 'term3' before the crash\n",
              enriched->results.size());

  // Simulated power cut: clone the store as it sits on disk and tear a
  // half-written record onto shard 1's WAL (a mutation that never acked).
  if (!p.durable->Flush().ok()) return 1;
  std::string crash_dir = (root / "after_crash").string();
  fs::copy(data_dir, crash_dir, fs::copy_options::recursive);
  {
    std::string wal = store::DurableIndexService::WalPath(
        store::DurableIndexService::PartitionDir(crash_dir, 1),
        p.durable->epoch(1));
    auto bytes = store::ReadWalBytes(wal);
    if (!bytes.ok()) return 1;
    std::string torn = *bytes + "\x53half-a-record-then-power-cut";
    if (!store::WriteFileAtomic(wal, torn, /*sync=*/false).ok()) return 1;
    std::printf("simulated crash: store cloned, torn record on shard 1's WAL\n");
  }

  // Recovery: newest valid snapshot per shard + WAL tail replay, shards in
  // parallel; the torn tail is discarded as unacked.
  store::DurableOptions recovery;
  recovery.data_dir = crash_dir;
  recovery.num_lists = p.plan.NumLists();
  recovery.placement = options.placement;
  recovery.seed = options.seed ^ 0x0F0F;
  recovery.num_shards = options.num_shards;
  auto recovered = store::DurableIndexService::Open(recovery);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("recovered: %llu elements across %zu shards "
              "(epochs %llu, %llu)\n",
              total_elements(**recovered), (*recovered)->num_partitions(),
              static_cast<unsigned long long>((*recovered)->epoch(0)),
              static_cast<unsigned long long>((*recovered)->epoch(1)));

  // A client pointed at the recovered server sees identical results.
  net::DirectTransport transport(recovered->get());
  core::ZerberRClient client(p.user, p.keys.get(), &p.plan, &transport,
                             &p.corpus.vocabulary(), p.assigner.get());
  auto after = client.QueryTopK(term, 5);
  if (!after.ok()) return 1;
  bool identical = after->results.size() == enriched->results.size();
  for (size_t i = 0; identical && i < after->results.size(); ++i) {
    identical = after->results[i].doc_id == enriched->results[i].doc_id &&
                after->results[i].score == enriched->results[i].score;
  }
  std::printf("after recovery: %zu results, %s\n", after->results.size(),
              identical ? "byte-identical to the never-crashed server"
                        : "MISMATCH (bug!)");

  // Tamper check: a flipped bit in a snapshot is refused at recovery (the
  // engine falls back to the previous generation when one exists).
  {
    std::string snapshot = zerber::SerializeIndexSnapshot(
        (*recovered)->partition(0));
    snapshot[snapshot.size() / 2] ^= 0x01;
    auto tampered = zerber::ParseIndexSnapshot(snapshot);
    std::printf("tampered snapshot rejected: %s\n",
                tampered.status().IsCorruption() ? "yes (checksum mismatch)"
                                                 : "NO (bug!)");
  }

  fs::remove_all(root);
  return identical ? 0 : 1;
}
