// The three deployments the benchmark drives, each built from the
// program's public APIs: core::BuildPipeline provisions the corpus, keys,
// RSTFs, merge plan and backend; the benchmark adds one churn group for its
// inserts, provisions its load users, and serves the backend the way the
// workload prescribes.
//
// Durable backends are bulk-loaded the way an operator loads a store: the
// WAL unsynced and no snapshot rotation while the corpus, the users and the
// benchmark's seed elements go in, then a clean close (which flushes) and a
// reopen with the serving flush policy, group commit, whose recovery
// replays the load. Set-up time thus covers loading and recovery without
// resting on thousands of fsyncs or cross-process round trips, and every
// write the benchmark measures runs with group commit. The cluster loads
// in-process into a store with one partition per shard, and each shard
// process then recovers its partition.
//
//   search   StudIP preset at scale 0.1, in-memory ShardedIndexService (4
//            shards) behind a 2-loop TcpServer with hand-off placement.
//   mixed    tiny preset, DurableIndexService over one IndexServer
//            (group-commit WAL, snapshot rotation) behind a 1-loop
//            TcpServer.
//   cluster  tiny preset, cluster::RouterService over 4 durable
//            shard_server processes; clients call the router in-process.

#ifndef ZERBERR_PERFBENCH_DEPLOYMENT_H_
#define ZERBERR_PERFBENCH_DEPLOYMENT_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "cluster/router.h"
#include "core/pipeline.h"
#include "load/driver.h"
#include "net/tcp.h"
#include "spans.h"
#include "timed_service.h"
#include "util/statusor.h"

namespace zr::perfbench {

enum class Backend { kSearch, kMixed, kCluster };

struct DeploymentOptions {
  Backend backend = Backend::kSearch;

  /// Fresh directory for the durable stores (mixed, cluster).
  std::string data_dir;

  /// The shard_server binary (cluster).
  std::string shard_server;

  /// WAL bytes that trigger a snapshot rotation (mixed, cluster).
  uint64_t snapshot_threshold_bytes = 4ull << 20;

  /// Non-null installs the dispatch decorator between the serving layer
  /// and the backend (traced runs).
  SpanLog* spans = nullptr;
};

class Deployment {
 public:
  /// Builds and bulk-loads the deployment and provisions its users. It
  /// does not serve yet: backend() is the loading backend until Serve().
  static StatusOr<std::unique_ptr<Deployment>> Build(
      const DeploymentOptions& options);

  /// Reopens a durable backend with group commit and starts serving.
  Status Serve();

  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  core::Pipeline& pipeline() { return *pipeline_; }

  /// A new client-side connection to the deployment: a TcpTransport to the
  /// server, or (cluster) a DirectTransport into the router.
  std::unique_ptr<net::Transport> NewTransport();

  /// The group every benchmark insert goes to. Load users hold it; the
  /// probe user (pipeline user 1) does not, so churn never changes what
  /// the correctness probes see.
  crypto::GroupId churn_group() const { return churn_group_; }
  const std::vector<zerber::UserId>& load_users() const { return load_users_; }

  /// The undecorated backend.
  net::ZerberService* backend() { return backend_; }

  /// Server-side counters of the backend.
  zerber::ServerStats server_stats() { return view_.server_stats(); }

  /// Non-null on search and mixed.
  net::TcpServer* tcp_server() { return tcp_server_.get(); }

  /// Null except on cluster.
  cluster::RouterService* router() { return pipeline_->router.get(); }

  std::vector<pid_t> shard_pids() const;

  /// Sum over partitions of the newest snapshot epoch on disk; the delta
  /// over a window counts completed rotations. 0 for in-memory backends.
  uint64_t SnapshotEpochs() const;

  /// Elements in the index when the backend can count them in-process
  /// (search, mixed); -1 otherwise.
  int64_t IndexElements();

 private:
  explicit Deployment(const DeploymentOptions& options) : options_(options) {}

  /// Closes the loaded durable backend and reopens it for serving (mixed)
  /// or serves its partitions from shard processes (cluster).
  Status ReopenForServing();
  Status Provision();

  /// Store directory and shard_server flags of shard `shard`.
  std::string ShardDir(size_t shard) const;
  std::vector<std::string> ShardArgs(size_t shard) const;

  DeploymentOptions options_;
  std::vector<std::unique_ptr<cluster::ShardProcess>> shards_;
  std::unique_ptr<core::Pipeline> pipeline_;
  /// The pipeline's backend with its grant and stats hooks; rebuilt when
  /// serving swaps the backend.
  load::Deployment view_;
  net::ZerberService* backend_ = nullptr;
  std::unique_ptr<TimedService> dispatch_;
  net::ZerberService* served_ = nullptr;
  std::unique_ptr<net::TcpServer> tcp_server_;
  crypto::GroupId churn_group_ = 0;
  std::vector<zerber::UserId> load_users_;
};

}  // namespace zr::perfbench

#endif  // ZERBERR_PERFBENCH_DEPLOYMENT_H_
