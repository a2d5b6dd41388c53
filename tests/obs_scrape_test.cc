// The scrape plane of one process that hosts several deployments at once:
// two in-memory backends, a durable one, a 2-loop TcpServer and a
// RouterService, all live together. The exposition format allows each
// `name{labels}` series once per scrape, and the metric names are what
// dashboards and tools/zerber_stats read, so both are pinned here; so is
// that every in-process shard publishes its own latency histograms.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "crypto/keys.h"
#include "net/service.h"
#include "net/tcp.h"
#include "obs/registry.h"
#include "store/durable_service.h"
#include "zerber/posting_element.h"
#include "zerber/sharded_index.h"
#include "zerber/zerber_index.h"

namespace zr {
namespace {

namespace fs = std::filesystem;

constexpr zerber::UserId kUser = 7;
constexpr crypto::GroupId kGroup = 1;

/// Series keys (`name` or `name{labels}`) of every non-comment line.
std::vector<std::string> SeriesKeys(const std::string& text) {
  std::vector<std::string> keys;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    keys.push_back(line.substr(0, line.rfind(' ')));
  }
  return keys;
}

std::string NameOf(const std::string& key) {
  return key.substr(0, key.find('{'));
}

/// The value of series `key` in `text`; fails the test when absent.
uint64_t ValueOf(const std::string& text, const std::string& key) {
  const std::string prefix = key + ' ';
  for (size_t pos = 0; pos < text.size();) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0) {
      return std::stoull(
          text.substr(pos + prefix.size(), eol - pos - prefix.size()));
    }
    pos = eol + 1;
  }
  ADD_FAILURE() << key << " is not published";
  return 0;
}

class ScrapeTest : public ::testing::Test {
 protected:
  ScrapeTest() : keys_("obs-scrape-test") {
    EXPECT_TRUE(keys_.CreateGroup(kGroup).ok());
    dir_ = fs::temp_directory_path() /
           ("zr_obs_scrape_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  ~ScrapeTest() override { fs::remove_all(dir_); }

  net::InsertRequest MakeInsert(uint32_t list) {
    auto element = zerber::SealPostingElement(
        zerber::PostingPayload{1, 1, 0.5}, kGroup, 0.5, &keys_);
    EXPECT_TRUE(element.ok());
    net::InsertRequest request;
    request.user = kUser;
    request.list = list;
    request.element = std::move(element).value();
    return request;
  }

  /// One insert, fetch and delete on `list`, so every per-op counter and
  /// latency histogram of the serving shard has a sample.
  void Exercise(net::ZerberService* service, uint32_t list) {
    auto inserted = service->Insert(MakeInsert(list));
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    net::QueryRequest fetch;
    fetch.user = kUser;
    fetch.list = list;
    fetch.count = 10;
    ASSERT_TRUE(service->Fetch(fetch).ok());
    net::DeleteRequest erase;
    erase.user = kUser;
    erase.list = list;
    erase.handle = inserted->handle;
    ASSERT_TRUE(service->Delete(erase).ok());
  }

  /// A 2-shard durable store of 4 lists in dir_, with kUser in kGroup.
  std::unique_ptr<store::DurableIndexService> OpenDurable() {
    store::DurableOptions options;
    options.data_dir = dir_.string();
    options.num_lists = 4;
    options.num_shards = 2;
    options.num_shard_workers = 0;
    auto durable = store::DurableIndexService::Open(options);
    EXPECT_TRUE(durable.ok()) << durable.status().ToString();
    if (!durable.ok()) return nullptr;
    EXPECT_TRUE((*durable)->AddGroup(kGroup).ok());
    EXPECT_TRUE((*durable)->GrantMembership(kUser, kGroup).ok());
    return std::move(durable).value();
  }

  /// Builds the deployment, drives a little traffic through every backend,
  /// and returns one scrape of the process registry.
  std::string ScrapeDeployment() {
    zerber::IndexServer single(4, zerber::Placement::kTrsSorted);
    {
      QuiescenceLock quiesced(single.quiescence());
      EXPECT_TRUE(single.acl().AddGroup(kGroup).ok());
      EXPECT_TRUE(single.acl().GrantMembership(kUser, kGroup).ok());
    }
    net::IndexService single_service(&single);

    zerber::ShardedIndexService::Options sharded_options;
    sharded_options.num_shards = 2;
    sharded_options.num_workers = 0;
    zerber::ShardedIndexService sharded(4, sharded_options);
    EXPECT_TRUE(sharded.AddGroup(kGroup).ok());
    EXPECT_TRUE(sharded.GrantMembership(kUser, kGroup).ok());

    std::unique_ptr<store::DurableIndexService> durable = OpenDurable();
    if (durable == nullptr) return "";

    auto tcp = net::TcpServer::Start(
        &sharded, net::ServerConfig().WithLoops(2).WithAcceptMode(
                      net::AcceptMode::kHandOff));
    EXPECT_TRUE(tcp.ok()) << tcp.status().ToString();
    if (!tcp.ok()) return "";

    cluster::RouterService::Options router_options;
    router_options.shard_addrs = {(*tcp)->address(), (*tcp)->address()};
    router_options.num_workers = 0;
    cluster::RouterService router(4, router_options);

    Exercise(&single_service, 1);
    for (uint32_t list = 0; list < 2; ++list) {
      net::TcpTransport transport((*tcp)->address());
      Exercise(&transport, list);
      Exercise(durable.get(), list);
    }
    return obs::Registry::Global().RenderPrometheus();
  }

  crypto::KeyStore keys_;
  fs::path dir_;
};

TEST_F(ScrapeTest, NoSeriesRepeatsInOneScrape) {
  std::string text = ScrapeDeployment();
  ASSERT_FALSE(text.empty());
  std::map<std::string, int> seen;
  for (const std::string& key : SeriesKeys(text)) ++seen[key];
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << key << " rendered " << count << " times";
  }
}

// Metric names this deployment publishes. New series may join; none of
// these may disappear.
TEST_F(ScrapeTest, PublishesEveryPinnedMetricName) {
  std::string text = ScrapeDeployment();
  ASSERT_FALSE(text.empty());
  std::set<std::string> names;
  for (const std::string& key : SeriesKeys(text)) names.insert(NameOf(key));
  static const char* const kPinned[] = {
      "zr_index_delete_latency_ns_bucket",
      "zr_index_delete_latency_ns_count",
      "zr_index_delete_latency_ns_max",
      "zr_index_delete_latency_ns_min",
      "zr_index_delete_latency_ns_sum",
      "zr_index_fetch_latency_ns_bucket",
      "zr_index_fetch_latency_ns_count",
      "zr_index_fetch_latency_ns_max",
      "zr_index_fetch_latency_ns_min",
      "zr_index_fetch_latency_ns_sum",
      "zr_index_insert_latency_ns_bucket",
      "zr_index_insert_latency_ns_count",
      "zr_index_insert_latency_ns_max",
      "zr_index_insert_latency_ns_min",
      "zr_index_insert_latency_ns_sum",
      "zr_router_attempts_total",
      "zr_router_breaker_opens_total",
      "zr_router_probe_failures_total",
      "zr_router_probes_total",
      "zr_router_rejoins_total",
      "zr_router_retries_total",
      "zr_router_transport_errors_total",
      "zr_router_unavailable_total",
      "zr_server_bytes_served_total",
      "zr_server_delete_denied_total",
      "zr_server_delete_latency_ns_total",
      "zr_server_delete_requests_total",
      "zr_server_elements_served_total",
      "zr_server_fetch_latency_ns_total",
      "zr_server_fetch_requests_total",
      "zr_server_insert_denied_total",
      "zr_server_insert_latency_ns_total",
      "zr_server_insert_requests_total",
      "zr_shard_client_attempts_total",
      "zr_shard_client_breaker_opens_total",
      "zr_shard_client_rejoins_total",
      "zr_shard_client_retries_total",
      "zr_shard_client_transport_errors_total",
      "zr_shard_client_unavailable_total",
      "zr_tcp_bytes_read_total",
      "zr_tcp_bytes_written_total",
      "zr_tcp_connections_accepted_total",
      "zr_tcp_connections_closed_total",
      "zr_tcp_frames_served_total",
      "zr_tcp_loop_bytes_read_total",
      "zr_tcp_loop_bytes_written_total",
      "zr_tcp_loop_connections_accepted_total",
      "zr_tcp_loop_frames_served_total",
      "zr_tcp_loop_open_sessions",
      "zr_tcp_open_sessions",
      "zr_tcp_protocol_errors_total",
      "zr_wal_append_latency_ns_bucket",
      "zr_wal_append_latency_ns_count",
      "zr_wal_append_latency_ns_max",
      "zr_wal_append_latency_ns_min",
      "zr_wal_append_latency_ns_sum",
  };
  for (const char* name : kPinned) {
    EXPECT_EQ(names.count(name), 1u) << name << " is no longer published";
  }
}

// Each in-process shard times its own requests: its latency histograms and
// its WAL append histogram carry the shard's labels, and a histogram's sum
// is the matching ServerStats latency field, stored nowhere else.
TEST_F(ScrapeTest, EveryShardPublishesItsOwnLatencyHistograms) {
  zerber::ShardedIndexService::Options options;
  options.num_shards = 4;
  options.num_workers = 0;
  zerber::ShardedIndexService sharded(8, options);
  ASSERT_TRUE(sharded.AddGroup(kGroup).ok());
  ASSERT_TRUE(sharded.GrantMembership(kUser, kGroup).ok());
  for (uint32_t list = 0; list < 8; ++list) Exercise(&sharded, list);

  std::unique_ptr<store::DurableIndexService> durable = OpenDurable();
  ASSERT_NE(durable, nullptr);
  Exercise(durable.get(), 0);  // shard 0: one insert and one delete
  for (uint32_t list : {1, 3}) Exercise(durable.get(), list);  // shard 1

  std::string text = obs::Registry::Global().RenderPrometheus();
  for (size_t s = 0; s < 4; ++s) {
    const zerber::IndexServer& shard = sharded.shard(s);
    const std::string labels = "{" + shard.metric_labels() + "}";
    zerber::ServerStats stats = shard.stats();
    EXPECT_EQ(stats.fetch_requests, 2u) << "shard " << s;
    EXPECT_GT(stats.fetch_latency_ns, 0u) << "shard " << s;
    EXPECT_EQ(ValueOf(text, "zr_index_fetch_latency_ns_sum" + labels),
              stats.fetch_latency_ns);
    EXPECT_EQ(ValueOf(text, "zr_index_fetch_latency_ns_count" + labels),
              stats.fetch_requests);
    EXPECT_EQ(ValueOf(text, "zr_index_insert_latency_ns_sum" + labels),
              stats.insert_latency_ns);
    EXPECT_EQ(ValueOf(text, "zr_index_delete_latency_ns_sum" + labels),
              stats.delete_latency_ns);
    EXPECT_EQ(ValueOf(text, "zr_server_fetch_latency_ns_total" + labels),
              stats.fetch_latency_ns);
  }
  // Two WAL records per exercised list (its insert and its delete). The
  // ACL changes were logged before the window, on every shard alike.
  const std::string wal0 = "{" + durable->partition(0).metric_labels() + "}";
  const std::string wal1 = "{" + durable->partition(1).metric_labels() + "}";
  EXPECT_EQ(ValueOf(text, "zr_wal_append_latency_ns_count" + wal1) -
                ValueOf(text, "zr_wal_append_latency_ns_count" + wal0),
            2u);
}

}  // namespace
}  // namespace zr
