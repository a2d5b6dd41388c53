// End-to-end experiment pipeline.
//
// Wires together every subsystem in the order the paper describes
// (Section 5): generate (or accept) a corpus, sample a training set, select
// sigma by cross-validation, train per-term RSTFs, plan the BFM merge,
// provision keys and ACLs, build the encrypted index on the server, and
// stand up baseline comparators. All benches and examples build on this.

#ifndef ZERBERR_CORE_PIPELINE_H_
#define ZERBERR_CORE_PIPELINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "core/query_protocol.h"
#include "core/sigma_selection.h"
#include "core/trs.h"
#include "core/zerber_r_client.h"
#include "index/inverted_index.h"
#include "net/service.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "store/durable_service.h"
#include "store/wal.h"
#include "synth/presets.h"
#include "synth/query_log.h"
#include "text/corpus.h"
#include "util/status.h"
#include "util/statusor.h"
#include "zerber/merge_planner.h"
#include "zerber/sharded_index.h"
#include "zerber/zerber_index.h"

namespace zr::core {

/// Pipeline construction options.
struct PipelineOptions {
  /// Dataset (corpus + workload + r + training fractions).
  synth::DatasetPreset preset = synth::TinyPreset();

  /// RSTF kernel.
  RstfKind rstf_kind = RstfKind::kGaussianErf;

  /// Kernel scale; 0 = select by corpus-level cross-validation (Fig. 9).
  double sigma = 0.0;

  /// Terms sampled for corpus-level sigma selection.
  size_t sigma_sample_terms = 32;

  /// Subsample cap per term's RSTF.
  size_t max_training_points = 512;

  /// Server-side element placement. kTrsSorted = Zerber+R;
  /// kRandomPlacement = plain Zerber baseline.
  zerber::Placement placement = zerber::Placement::kTrsSorted;

  /// Merge strategy: true = BFM (paper), false = random-merge ablation.
  bool bfm_merge = true;

  /// Client protocol parameters (initial response size b, ...).
  ProtocolOptions protocol;

  /// How client traffic reaches the server: kDirect routes typed messages
  /// in-process (fast; analytic byte accounting); kTcp starts a
  /// net::TcpServer over the built backend and routes every exchange
  /// through a real socket (real byte accounting, exercises
  /// encode/decode). Results and byte counts are identical either way.
  net::TransportKind transport = net::TransportKind::kDirect;

  /// Where the in-process TcpServer binds (transport = kTcp only). Port 0
  /// picks an ephemeral port; read the actual one from
  /// Pipeline::tcp_server->address().
  std::string listen_addr = "127.0.0.1:0";

  /// Event-loop threads of the in-process TcpServer (transport = kTcp
  /// only; see net::ServerConfig::WithLoops).
  size_t num_server_loops = 1;

  /// Non-empty (with transport = kTcp) builds a *client-only* pipeline
  /// against an already-running remote server at this "host:port": no
  /// backend is constructed and the corpus is not inserted — keys, merge
  /// plan and TRS assigner are derived deterministically from the preset
  /// and seed, so they match a server deployment built from the same
  /// options (see examples/tcp_server.cpp + examples/tcp_client.cpp).
  std::string connect_addr;

  /// Index shards serving the merged lists. In memory, the pipeline
  /// deploys a ShardedIndexService (Pipeline::sharded) of this many
  /// IndexServer shards — merged lists are partitioned round-robin and
  /// MultiFetch fans out across shards. 1 (the default) is one shard that
  /// draws and numbers handles exactly like an unsharded IndexServer
  /// (zerber::ShardSeed). Clients and results are identical for any count.
  size_t num_shards = 1;

  /// MultiFetch worker threads of the fan-out backend (net::ShardRouter):
  /// the in-memory, durable or cluster one. kAutoWorkers sizes the pool
  /// from the hardware (no threads for one shard).
  size_t num_shard_workers = zerber::ShardedIndexService::kAutoWorkers;

  /// Cluster deployment: non-empty serves the index over already-running
  /// shard-server processes (tools/shard_server.cc) at these "host:port"
  /// addresses — shard s at index s, started with --shards=N --shard=s,
  /// --lists = the merge plan's list count and --seed = this pipeline's
  /// backend seed (options.seed ^ 0x0F0F). The pipeline deploys a
  /// cluster::RouterService (Pipeline::router) as the backend; the routing
  /// math guarantees results identical to num_shards = N in-process.
  /// Mutually exclusive with num_shards > 1, data_dir and connect_addr.
  std::vector<std::string> shard_addrs;

  /// Alternative to shard_addrs when the shard servers cannot be started
  /// before the pipeline (their --lists flag needs the merge plan's list
  /// count, which only exists mid-build): invoked once the plan is ready,
  /// with the values the shard-server flags need; returns the addresses
  /// the processes bound. The callee owns the processes' lifetime.
  std::function<StatusOr<std::vector<std::string>>(
      size_t num_lists, uint64_t backend_seed)>
      shard_launcher;

  /// Fault-handling template of the router's per-shard clients (retries,
  /// deadlines, circuit breaker) in cluster deployments.
  cluster::ShardClientOptions cluster_client;

  /// Durable storage engine root. Empty (the default) serves in memory
  /// only; non-empty deploys a DurableIndexService (store/durable_service.h,
  /// Pipeline::durable): a net::ShardRouter over num_shards durable shards,
  /// each WAL-logging every acked mutation, rotating snapshots at a size
  /// threshold and recovering from its own subdirectory after a crash.
  /// Intended for a fresh directory — BuildPipeline re-inserts the corpus;
  /// reopen an existing store with DurableIndexService::Open directly.
  std::string data_dir;

  /// When an acked mutation is durable (only with data_dir set).
  store::WalSyncMode wal_sync_mode = store::WalSyncMode::kGroupCommit;

  /// WAL size triggering background snapshot rotation (with data_dir set).
  uint64_t snapshot_threshold_bytes = 4ull << 20;

  /// Build the plaintext InvertedIndex comparator too.
  bool build_baseline_index = true;

  /// Generate the synthetic query log.
  bool build_query_log = true;

  /// Master seed for keys/ACL randomness.
  uint64_t seed = 99;
};

/// A fully provisioned deployment. Not copyable/movable: members hold
/// pointers into each other.
struct Pipeline {
  PipelineOptions options;

  text::Corpus corpus;
  synth::QueryLog query_log;
  std::vector<text::DocId> training_docs;

  /// Sigma actually used (either configured or cross-validated).
  double sigma = 0.0;
  /// Sweep from sigma selection (empty when sigma was configured).
  std::vector<SigmaSweepPoint> sigma_sweep;

  zerber::MergePlan plan;
  std::unique_ptr<crypto::KeyStore> keys;
  std::unique_ptr<TrsAssigner> assigner;

  /// Backend: exactly one is set, except in a client-only pipeline, and
  /// each is a net::ShardRouter serving the typed ZerberService API.
  /// In-memory deployments set `sharded`, over options.num_shards (>= 1)
  /// IndexServer shards; durable deployments (options.data_dir non-empty)
  /// set `durable`, over options.num_shards (>= 1) durable shards that
  /// own their IndexServers.
  std::unique_ptr<zerber::ShardedIndexService> sharded;
  std::unique_ptr<store::DurableIndexService> durable;

  /// Cluster deployments (options.shard_addrs / shard_launcher) set this
  /// instead: the shard-router backend over the remote shard servers.
  std::unique_ptr<cluster::RouterService> router;

  /// The transport the client's traffic is routed through (its stats
  /// price under the paper's user link model with net::TransferSeconds).
  /// `tcp_server` is set only when options.transport == kTcp with no
  /// connect_addr: the deployment's backend served over a real socket
  /// (declared before transport so the client side tears down first, then
  /// the server, then the backend it dispatches into).
  std::unique_ptr<net::TcpServer> tcp_server;
  std::unique_ptr<net::Transport> transport;

  std::unique_ptr<ZerberRClient> client;

  /// Plaintext comparator (normalized-TF scoring, Equation 4).
  std::optional<index::InvertedIndex> baseline;

  /// The single experiment user (member of every group, like the paper's
  /// Section 6.6 setup "the user has access to all documents").
  zerber::UserId user = 1;

  Pipeline() = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
};

/// Builds the full deployment. Steps and failures are surfaced via Status.
StatusOr<std::unique_ptr<Pipeline>> BuildPipeline(const PipelineOptions& options);

/// Like BuildPipeline but over an externally supplied corpus (examples use
/// this with hand-written documents).
StatusOr<std::unique_ptr<Pipeline>> BuildPipelineFromCorpus(
    text::Corpus corpus, const PipelineOptions& options);

}  // namespace zr::core

#endif  // ZERBERR_CORE_PIPELINE_H_
