// LoadDriver: multi-threaded workload driver for the serving stack.
//
// Runs a LoadSpec against *any* net::ZerberService — a ShardedIndexService,
// a WAL-backed DurableIndexService or a cluster::RouterService, through a
// Direct or TCP transport. Each worker thread owns its transport, its
// per-user clients (one plain-Zerber and one Zerber+R client per load
// user), its deterministic OpGenerator stream, its handle pool for delete
// churn, and one util::LatencyHistogram per op class (single-writer, so the
// hot path takes no locks); the driver merges everything into a LoadReport
// after the workers join.
//
// Time comes from an injectable clock so tests can drive the harness with
// a deterministic fake and get byte-identical reports; production runs use
// the default steady clock. Open-loop pacing sleeps on the real clock
// regardless (a fake clock cannot be slept against).

#ifndef ZERBERR_LOAD_DRIVER_H_
#define ZERBERR_LOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "core/trs.h"
#include "crypto/keys.h"
#include "load/load_spec.h"
#include "load/op_generator.h"
#include "load/report.h"
#include "net/service.h"
#include "net/transport.h"
#include "text/corpus.h"
#include "util/statusor.h"
#include "zerber/merge_planner.h"
#include "zerber/zerber_index.h"

namespace zr::core {
struct Pipeline;
}  // namespace zr::core

namespace zr::net {
class FrameObserver;
}  // namespace zr::net

namespace zr::load {

/// A handle known before the run starts (preloaded elements), seeding the
/// delete pools so churn can start against an already-large index.
struct PreloadedHandle {
  zerber::UserId user = 0;  ///< a user allowed to delete the element
  zerber::MergedListId list = 0;
  uint64_t handle = 0;
};

/// Everything the driver needs to know about the system under test. All
/// pointers are borrowed and must outlive the driver.
struct Deployment {
  /// The service the load is applied to (in-memory, durable, cluster, ...).
  net::ZerberService* backend = nullptr;

  /// Transport each worker routes its traffic through.
  net::TransportKind transport = net::TransportKind::kDirect;

  /// "host:port" each worker's TcpTransport connects to (required when
  /// transport == kTcp; each worker owns its own connection).
  /// DeploymentFromPipeline fills it from the pipeline's TcpServer.
  std::string connect_addr;

  /// Client-side artifacts of the deployment.
  crypto::KeyStore* keys = nullptr;
  const zerber::MergePlan* plan = nullptr;
  const text::Corpus* corpus = nullptr;
  const core::TrsAssigner* assigner = nullptr;

  /// Provisioned ACL groups load users are drawn into.
  std::vector<crypto::GroupId> groups;

  /// Grants a load user membership of a group (called at setup, while the
  /// deployment is quiescent). Null skips ACL provisioning.
  std::function<Status(zerber::UserId, crypto::GroupId)> grant;

  /// Snapshot of the backend's server-side counters (for the before/after
  /// delta in the report). Null reports zeros.
  std::function<zerber::ServerStats()> server_stats;

  /// Snapshot of the shard-router's fault-handling counters (cluster
  /// deployments; before/after delta in the report). Null reports zeros.
  std::function<cluster::RouterStats()> router_stats;

  /// Handles of preloaded elements, distributed round-robin across the
  /// workers' delete pools.
  std::vector<PreloadedHandle> initial_handles;

  /// Passive wire tap installed on every worker's TcpSession (stream id ==
  /// worker index + 1); ignored unless transport == kTcp. Borrowed; must
  /// outlive the driver. Observation only — the op stream, accounting and
  /// report are byte-identical with and without a tap (asserted in
  /// tests/attack_trace_test.cc).
  net::FrameObserver* wire_tap = nullptr;
};

/// Builds a Deployment over a fully built core::Pipeline (its in-memory,
/// durable or cluster net::ShardRouter — whichever the pipeline deployed).
Deployment DeploymentFromPipeline(core::Pipeline* pipeline);

/// The driver. Construct, then Run() exactly once.
class LoadDriver {
 public:
  /// Monotonic nanosecond clock; null uses std::chrono::steady_clock.
  using NowFn = std::function<uint64_t()>;

  LoadDriver(const Deployment& deployment, const LoadSpec& spec,
             NowFn now = nullptr);
  ~LoadDriver();  // out of line: WorkerState is private and incomplete here

  /// Executes the workload: provisions load users, runs the unmeasured
  /// warmup phase, then the measured phase, and merges the per-worker
  /// results. InvalidArgument for a bad spec or deployment;
  /// FailedPrecondition when the corpus has no indexed terms.
  StatusOr<LoadReport> Run();

  /// The load-user ids the driver provisions (base + i). Exposed so tests
  /// and preloaders can align PreloadedHandle::user with driver users.
  static zerber::UserId LoadUserId(size_t index);

 private:
  struct WorkerState;

  Status Setup();
  void RunWorkerPhase(bool measured);
  void WorkerWarmup(WorkerState* w);
  void WorkerMeasured(WorkerState* w, uint64_t start_ns);
  void ExecuteOp(WorkerState* w, const Op& op, bool measured);

  uint64_t Now() const;

  Deployment deployment_;
  LoadSpec spec_;
  NowFn now_;

  /// Popularity-ordered term table: (term, term string, merged list).
  struct TermEntry {
    text::TermId term = 0;
    std::string term_string;
    zerber::MergedListId list = 0;
  };
  std::vector<TermEntry> terms_;

  /// Load users and their group subsets.
  std::vector<zerber::UserId> users_;
  std::vector<std::vector<crypto::GroupId>> user_groups_;

  std::vector<std::unique_ptr<WorkerState>> workers_;
};

}  // namespace zr::load

#endif  // ZERBERR_LOAD_DRIVER_H_
