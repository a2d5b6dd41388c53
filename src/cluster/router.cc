#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

namespace zr::cluster {

namespace {

std::vector<std::unique_ptr<net::ShardService>> MakeClients(
    const RouterService::Options& options) {
  size_t num_shards = std::max<size_t>(1, options.shard_addrs.size());
  std::vector<std::unique_ptr<net::ShardService>> clients;
  clients.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardClientOptions client = options.client;
    client.addr = s < options.shard_addrs.size() ? options.shard_addrs[s]
                                                 : std::string();
    client.expected_server_id = s;
    // Decorrelate the jitter streams so shards never retry in lockstep.
    client.retry_backoff.seed = zerber::MixSeed(
        options.client.retry_backoff.seed + 0x9E3779B97F4A7C15ull * (s + 1));
    client.breaker_backoff.seed = zerber::MixSeed(
        options.client.breaker_backoff.seed + 0x517CC1B727220A95ull * (s + 1));
    clients.push_back(std::make_unique<ShardClient>(std::move(client)));
  }
  return clients;
}

}  // namespace

RouterService::RouterService(size_t num_lists, const Options& options)
    : ShardRouter(num_lists, MakeClients(options), options.num_workers),
      metric_labels_(obs::NewInstanceLabel()) {
  // The router's fault-handling counters on the scrape plane: the
  // aggregate under zr_router_*, plus the per-shard breakdown the
  // aggregate hides (which shard is retrying, whose breaker opened).
  metrics_collector_ = obs::Registry::Global().RegisterCollector(
      [this](obs::Scrape* out) {
        out->AddCounters("zr_router_", metric_labels_, router_stats());
        for (size_t s = 0; s < num_shards(); ++s) {
          out->AddCounters(
              "zr_shard_client_",
              metric_labels_ + ",shard=\"" + std::to_string(s) + "\"",
              shard_client(s).stats());
        }
      });
}

RouterStats RouterService::router_stats() const {
  RouterStats total;
  for (size_t s = 0; s < num_shards(); ++s) total += shard_client(s).stats();
  return total;
}

Status RouterService::WaitForShard(size_t s, uint64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  Status last = Status::OK();
  for (;;) {
    last = shard_client(s).Probe();
    if (last.ok()) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::Unavailable("shard " + std::to_string(s) + " (" +
                             shard_client(s).addr() + ") not up after " +
                             std::to_string(timeout_ms) +
                             "ms: " + last.message());
}

Status RouterService::WaitForAll(uint64_t timeout_ms) {
  for (size_t s = 0; s < num_shards(); ++s) {
    ZR_RETURN_IF_ERROR(WaitForShard(s, timeout_ms));
  }
  return Status::OK();
}

}  // namespace zr::cluster
