#include "core/pipeline.h"

#include <set>
#include <string>

#include "core/zerber_r_index.h"
#include "synth/corpus_generator.h"

namespace zr::core {

namespace {

StatusOr<std::unique_ptr<Pipeline>> Assemble(text::Corpus corpus,
                                             const PipelineOptions& options) {
  if (!options.connect_addr.empty() &&
      options.transport != net::TransportKind::kTcp) {
    return Status::InvalidArgument(
        "connect_addr requires transport = kTcp");
  }
  // Client-only deployments talk to a remote server that already holds
  // the index; everything server-side is skipped.
  const bool client_only = !options.connect_addr.empty();
  // Cluster deployments route over remote shard-server processes.
  const bool cluster_mode =
      !options.shard_addrs.empty() || options.shard_launcher != nullptr;
  if (cluster_mode &&
      (client_only || !options.data_dir.empty() || options.num_shards > 1)) {
    return Status::InvalidArgument(
        "cluster deployment (shard_addrs/shard_launcher) is mutually "
        "exclusive with connect_addr, data_dir and num_shards > 1");
  }

  auto p = std::make_unique<Pipeline>();
  p->options = options;
  p->corpus = std::move(corpus);

  if (options.build_query_log) {
    ZR_ASSIGN_OR_RETURN(p->query_log,
                        synth::GenerateQueryLog(p->corpus,
                                                options.preset.queries));
  }

  // 1. Training sample (paper: 30% of the corpus).
  p->training_docs = SampleTrainingDocs(
      p->corpus, options.preset.training_fraction, options.seed ^ 0xA5A5);
  if (p->training_docs.empty()) {
    return Status::FailedPrecondition("empty training sample");
  }

  // 2. Sigma: configured or cross-validated (Section 5.1.3).
  if (options.sigma > 0.0) {
    p->sigma = options.sigma;
  } else {
    SigmaSelectionOptions so;
    so.kind = options.rstf_kind;
    so.control_fraction = options.preset.control_fraction;
    so.max_training_points = options.max_training_points;
    so.seed = options.seed ^ 0x5A5A;
    ZR_ASSIGN_OR_RETURN(
        SigmaSelectionResult sel,
        SelectCorpusSigma(p->corpus, p->training_docs,
                          options.sigma_sample_terms, so));
    p->sigma = sel.best_sigma;
    p->sigma_sweep = std::move(sel.sweep);
  }

  // 3. Keys + per-group provisioning.
  p->keys = std::make_unique<crypto::KeyStore>(
      "zerber-r-pipeline-" + std::to_string(options.seed));
  std::set<crypto::GroupId> groups;
  for (const text::Document& doc : p->corpus.documents()) {
    groups.insert(doc.group());
  }
  for (crypto::GroupId g : groups) {
    ZR_RETURN_IF_ERROR(p->keys->CreateGroup(g));
  }

  // 4. Train per-term RSTFs on the sample.
  TrsTrainerOptions trainer;
  trainer.rstf.kind = options.rstf_kind;
  trainer.rstf.sigma = p->sigma;
  trainer.rstf.max_training_points = options.max_training_points;
  ZR_ASSIGN_OR_RETURN(TrsAssigner assigner,
                      TrainTrsAssigner(p->corpus, p->training_docs, trainer,
                                       p->keys.get()));
  p->assigner = std::make_unique<TrsAssigner>(std::move(assigner));

  // 5. Merge plan (BFM by default; random merge as ablation).
  if (options.bfm_merge) {
    ZR_ASSIGN_OR_RETURN(p->plan, zerber::PlanBfmMerge(p->corpus,
                                                      options.preset.r));
  } else {
    ZR_ASSIGN_OR_RETURN(
        p->plan,
        zerber::PlanRandomMerge(p->corpus, options.preset.r, options.seed));
  }

  // 6. Server with ACLs; the experiment user may read every group. In
  // memory, a ShardedIndexService over num_shards IndexServers; with
  // data_dir set, a DurableIndexService over num_shards durable shards (ACL
  // provisioning goes through it so the grants are WAL-logged too).
  net::ZerberService* backend = nullptr;
  if (client_only) {
    // No backend: the remote server owns the index and its ACLs.
  } else if (cluster_mode) {
    std::vector<std::string> addrs = options.shard_addrs;
    if (addrs.empty()) {
      // The launcher gets exactly what the shard-server flags need: the
      // global list count (known only now that the plan exists) and the
      // backend seed each shard derives its ShardSeed stream from.
      ZR_ASSIGN_OR_RETURN(
          addrs, options.shard_launcher(p->plan.NumLists(),
                                        options.seed ^ 0x0F0F));
    }
    cluster::RouterService::Options routing;
    routing.shard_addrs = std::move(addrs);
    routing.num_workers = options.num_shard_workers;
    routing.client = options.cluster_client;
    p->router = std::make_unique<cluster::RouterService>(p->plan.NumLists(),
                                                         routing);
    // Every shard must answer a health probe before provisioning: the ACL
    // broadcast below is the first traffic, and a shard still recovering
    // its WAL would burn the retry budget.
    ZR_RETURN_IF_ERROR(p->router->WaitForAll(15000));
    for (crypto::GroupId g : groups) {
      ZR_RETURN_IF_ERROR(p->router->AddGroup(g));
      ZR_RETURN_IF_ERROR(p->router->GrantMembership(p->user, g));
    }
    backend = p->router.get();
  } else if (!options.data_dir.empty()) {
    store::DurableOptions durability;
    durability.data_dir = options.data_dir;
    durability.sync_mode = options.wal_sync_mode;
    durability.snapshot_threshold_bytes = options.snapshot_threshold_bytes;
    durability.num_lists = p->plan.NumLists();
    durability.placement = options.placement;
    durability.seed = options.seed ^ 0x0F0F;
    durability.num_shards = options.num_shards;
    durability.num_shard_workers = options.num_shard_workers;
    ZR_ASSIGN_OR_RETURN(p->durable,
                        store::DurableIndexService::Open(durability));
    for (crypto::GroupId g : groups) {
      ZR_RETURN_IF_ERROR(p->durable->AddGroup(g));
      ZR_RETURN_IF_ERROR(p->durable->GrantMembership(p->user, g));
    }
    backend = p->durable.get();
  } else {
    zerber::ShardedIndexService::Options sharding;
    sharding.num_shards = options.num_shards;
    sharding.num_workers = options.num_shard_workers;
    sharding.placement = options.placement;
    sharding.seed = options.seed ^ 0x0F0F;
    p->sharded = std::make_unique<zerber::ShardedIndexService>(
        p->plan.NumLists(), sharding);
    for (crypto::GroupId g : groups) {
      ZR_RETURN_IF_ERROR(p->sharded->AddGroup(g));
      ZR_RETURN_IF_ERROR(p->sharded->GrantMembership(p->user, g));
    }
    backend = p->sharded.get();
  }

  // 7. Client traffic routed through the configured transport (byte counts
  // land in its stats). kTcp serves the backend just built over a real
  // socket and connects the client transport to it.
  if (options.transport == net::TransportKind::kTcp) {
    std::string connect_addr = options.connect_addr;
    if (!client_only) {
      net::ServerConfig tcp = net::ServerConfig::At(options.listen_addr)
                                  .WithLoops(options.num_server_loops);
      ZR_ASSIGN_OR_RETURN(p->tcp_server,
                          net::TcpServer::Start(backend, std::move(tcp)));
      connect_addr = p->tcp_server->address();
    }
    p->transport = std::make_unique<net::TcpTransport>(std::move(connect_addr));
  } else {
    p->transport = net::MakeTransport(options.transport, backend);
  }

  // 8. Client + encrypted index build (a client-only pipeline queries the
  // remote server's existing index instead of building one).
  p->client = std::make_unique<ZerberRClient>(
      p->user, p->keys.get(), &p->plan, p->transport.get(),
      &p->corpus.vocabulary(), p->assigner.get(), options.protocol);
  if (!client_only) {
    ZR_RETURN_IF_ERROR(BuildEncryptedIndex(p->corpus, p->client.get()));
  }

  // 9. Plaintext comparator.
  if (options.build_baseline_index) {
    p->baseline = index::InvertedIndex::Build(
        p->corpus, index::ScoringModel::kNormalizedTf);
  }
  return p;
}

}  // namespace

StatusOr<std::unique_ptr<Pipeline>> BuildPipeline(
    const PipelineOptions& options) {
  ZR_ASSIGN_OR_RETURN(text::Corpus corpus,
                      synth::GenerateCorpus(options.preset.corpus));
  return Assemble(std::move(corpus), options);
}

StatusOr<std::unique_ptr<Pipeline>> BuildPipelineFromCorpus(
    text::Corpus corpus, const PipelineOptions& options) {
  return Assemble(std::move(corpus), options);
}

}  // namespace zr::core
