#include "deployment.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <string_view>

#include "synth/presets.h"

namespace zr::perfbench {

namespace {

/// Load users start far above the pipeline's user ids.
constexpr zerber::UserId kLoadUserBase = 100000;
constexpr size_t kLoadUsers = 4;

constexpr size_t kSearchShards = 4;
constexpr size_t kSearchLoops = 2;
constexpr size_t kClusterShards = 4;

/// Rotation threshold while bulk-loading: above the whole load, so the
/// load writes no snapshot.
constexpr uint64_t kBulkLoadThresholdBytes = 64ull << 20;

/// The seed the pipeline gives its backend (and a cluster its shards).
uint64_t BackendSeed(const core::PipelineOptions& options) {
  return options.seed ^ 0x0F0F;
}

/// Epoch of a "snapshot-000007.idx" file name, or -1.
int64_t SnapshotEpochOf(const std::string& file_name) {
  static constexpr std::string_view kPrefix = "snapshot-";
  static constexpr std::string_view kSuffix = ".idx";
  if (file_name.size() <= kPrefix.size() + kSuffix.size() ||
      file_name.compare(0, kPrefix.size(), kPrefix) != 0 ||
      file_name.compare(file_name.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) != 0) {
    return -1;
  }
  return std::strtoll(file_name.c_str() + kPrefix.size(), nullptr, 10);
}

}  // namespace

std::string Deployment::ShardDir(size_t shard) const {
  return options_.data_dir + "/s" + std::to_string(shard);
}

std::vector<std::string> Deployment::ShardArgs(size_t shard) const {
  const core::Pipeline& p = *pipeline_;
  return {
      "--shard=" + std::to_string(shard),
      "--shards=" + std::to_string(kClusterShards),
      "--lists=" + std::to_string(p.plan.NumLists()),
      "--seed=" + std::to_string(BackendSeed(p.options)),
      "--data-dir=" + ShardDir(shard),
      "--sync=group-commit",
      "--snapshot-threshold=" +
          std::to_string(options_.snapshot_threshold_bytes),
      "--listen=127.0.0.1:0",
  };
}

StatusOr<std::unique_ptr<Deployment>> Deployment::Build(
    const DeploymentOptions& options) {
  std::unique_ptr<Deployment> d(new Deployment(options));

  core::PipelineOptions p;
  p.transport = net::TransportKind::kDirect;  // serving is set up below
  p.build_query_log = false;
  switch (options.backend) {
    case Backend::kSearch:
      p.preset = synth::StudIpPreset(0.1);
      p.num_shards = kSearchShards;
      break;
    case Backend::kCluster:
      // Loaded in-process into a store of kClusterShards partitions; each
      // partition becomes one shard process's store when serving starts.
      p.num_shards = kClusterShards;
      [[fallthrough]];
    case Backend::kMixed:
      p.preset = synth::TinyPreset();
      p.data_dir = options.data_dir;
      p.wal_sync_mode = store::WalSyncMode::kNone;
      p.snapshot_threshold_bytes = kBulkLoadThresholdBytes;
      break;
  }
  ZR_ASSIGN_OR_RETURN(d->pipeline_, core::BuildPipeline(p));
  // The pipeline's own client loaded the corpus; the benchmark brings its
  // own clients.
  d->pipeline_->client.reset();
  d->pipeline_->transport.reset();
  ZR_RETURN_IF_ERROR(d->Provision());
  return d;
}

Status Deployment::Serve() {
  ZR_RETURN_IF_ERROR(ReopenForServing());
  view_ = load::DeploymentFromPipeline(pipeline_.get());
  backend_ = view_.backend;
  served_ = backend_;
  if (options_.spans != nullptr) {
    dispatch_ = std::make_unique<TimedService>(backend_, SpanKind::kDispatch,
                                               options_.spans);
    served_ = dispatch_.get();
  }
  if (options_.backend != Backend::kCluster) {
    // Hand-off placement deals connections to loops round-robin, so the
    // clients' few connections land on the loops deterministically.
    net::ServerConfig config =
        net::ServerConfig::Local()
            .WithLoops(options_.backend == Backend::kSearch ? kSearchLoops : 1)
            .WithAcceptMode(net::AcceptMode::kHandOff);
    ZR_ASSIGN_OR_RETURN(tcp_server_,
                        net::TcpServer::Start(served_, std::move(config)));
  }
  return Status::OK();
}

Status Deployment::ReopenForServing() {
  core::Pipeline& p = *pipeline_;
  if (!p.durable) return Status::OK();  // search serves from memory
  p.durable.reset();  // a clean close flushes every WAL
  if (options_.backend == Backend::kMixed) {
    store::DurableOptions serving;
    serving.data_dir = p.options.data_dir;
    serving.sync_mode = store::WalSyncMode::kGroupCommit;
    serving.snapshot_threshold_bytes = options_.snapshot_threshold_bytes;
    serving.num_lists = p.plan.NumLists();
    serving.placement = p.options.placement;
    serving.seed = BackendSeed(p.options);
    ZR_ASSIGN_OR_RETURN(p.durable, store::DurableIndexService::Open(serving));
    return Status::OK();
  }
  // Cluster shard s holds exactly partition s of the loaded store
  // (store::DurableOptions::cluster_shards), so each partition moves into
  // its shard's directory and one shard_server process recovers it.
  std::vector<std::string> addrs;
  for (size_t s = 0; s < kClusterShards; ++s) {
    std::error_code ec;
    std::filesystem::create_directories(ShardDir(s), ec);
    std::filesystem::rename(
        store::DurableIndexService::PartitionDir(p.options.data_dir, s),
        store::DurableIndexService::PartitionDir(ShardDir(s), 0), ec);
    if (ec) return Status::Internal("cannot move partition: " + ec.message());
    ZR_ASSIGN_OR_RETURN(
        std::unique_ptr<cluster::ShardProcess> shard,
        cluster::ShardProcess::Start(options_.shard_server, ShardArgs(s)));
    addrs.push_back(shard->addr());
    shards_.push_back(std::move(shard));
  }
  cluster::RouterService::Options routing;
  routing.shard_addrs = std::move(addrs);
  p.router =
      std::make_unique<cluster::RouterService>(p.plan.NumLists(), routing);
  return p.router->WaitForAll(15000);
}

Status Deployment::Provision() {
  core::Pipeline& p = *pipeline_;
  view_ = load::DeploymentFromPipeline(&p);
  backend_ = view_.backend;

  // Provisioning happens before anything serves: quiescent by construction.
  std::vector<crypto::GroupId> groups = view_.groups;  // sorted
  churn_group_ = groups.empty() ? 1 : groups.back() + 1;
  ZR_RETURN_IF_ERROR(p.keys->CreateGroup(churn_group_));
  // load::Deployment can grant a group but not add one.
  if (p.durable) {
    ZR_RETURN_IF_ERROR(p.durable->AddGroup(churn_group_));
  } else if (p.sharded) {
    ZR_RETURN_IF_ERROR(p.sharded->AddGroup(churn_group_));
  } else {
    return Status::Internal("pipeline deployed no supported backend");
  }
  groups.push_back(churn_group_);
  for (size_t i = 0; i < kLoadUsers; ++i) {
    zerber::UserId user = kLoadUserBase + static_cast<zerber::UserId>(i);
    for (crypto::GroupId g : groups) ZR_RETURN_IF_ERROR(view_.grant(user, g));
    load_users_.push_back(user);
  }
  return Status::OK();
}

Deployment::~Deployment() {
  // Stop serving before the backend and the shard processes go away.
  if (tcp_server_) tcp_server_->Stop();
  tcp_server_.reset();
  dispatch_.reset();
  pipeline_.reset();
  for (auto& shard : shards_) {
    if (shard->running()) (void)shard->Terminate();
  }
}

std::unique_ptr<net::Transport> Deployment::NewTransport() {
  if (tcp_server_) {
    return std::make_unique<net::TcpTransport>(tcp_server_->address());
  }
  return std::make_unique<net::DirectTransport>(served_);
}

std::vector<pid_t> Deployment::shard_pids() const {
  std::vector<pid_t> pids;
  for (const auto& shard : shards_) pids.push_back(shard->pid());
  return pids;
}

uint64_t Deployment::SnapshotEpochs() const {
  if (options_.data_dir.empty()) return 0;
  std::map<std::string, int64_t> newest;  // partition dir -> epoch
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           options_.data_dir, ec)) {
    int64_t epoch = SnapshotEpochOf(entry.path().filename().string());
    if (epoch < 0) continue;
    int64_t& slot = newest[entry.path().parent_path().string()];
    slot = std::max(slot, epoch);
  }
  uint64_t sum = 0;
  for (const auto& [dir, epoch] : newest) sum += static_cast<uint64_t>(epoch);
  return sum;
}

int64_t Deployment::IndexElements() {
  core::Pipeline& p = *pipeline_;
  if (p.durable && p.durable->single()) {
    return static_cast<int64_t>(p.durable->single()->TotalElements());
  }
  if (p.sharded) return static_cast<int64_t>(p.sharded->TotalElements());
  return -1;
}

}  // namespace zr::perfbench
