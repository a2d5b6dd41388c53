#include "zerber/sharded_index.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "net/messages.h"
#include "net/shard_router.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace zr::zerber {
namespace {

class ShardedIndexTest : public ::testing::Test {
 protected:
  ShardedIndexTest() : keys_("sharded-test") {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
  }

  EncryptedPostingElement MakeElement(crypto::GroupId group, double trs,
                                      text::TermId term = 1,
                                      text::DocId doc = 1) {
    auto e = SealPostingElement(PostingPayload{term, doc, 0.5}, group, trs,
                                &keys_);
    EXPECT_TRUE(e.ok());
    return std::move(e).value();
  }

  /// num_lists lists over num_shards shards; users 10/20 as in the
  /// IndexServer suite (Alice: groups 1+2, Bob: group 1 only).
  std::unique_ptr<ShardedIndexService> MakeService(size_t num_lists,
                                                   size_t num_shards,
                                                   size_t num_workers = 0) {
    ShardedIndexService::Options options;
    options.num_shards = num_shards;
    options.num_workers = num_workers;
    options.seed = 77;
    auto service = std::make_unique<ShardedIndexService>(num_lists, options);
    EXPECT_TRUE(service->AddGroup(1).ok());
    EXPECT_TRUE(service->AddGroup(2).ok());
    EXPECT_TRUE(service->GrantMembership(kAlice, 1).ok());
    EXPECT_TRUE(service->GrantMembership(kAlice, 2).ok());
    EXPECT_TRUE(service->GrantMembership(kBob, 1).ok());
    return service;
  }

  StatusOr<uint64_t> InsertVia(ShardedIndexService& service, UserId user,
                               MergedListId list,
                               EncryptedPostingElement element) {
    net::InsertRequest request;
    request.user = user;
    request.list = list;
    request.element = std::move(element);
    ZR_ASSIGN_OR_RETURN(net::InsertResponse response,
                        service.Insert(request));
    return response.handle;
  }

  StatusOr<net::QueryResponse> FetchVia(ShardedIndexService& service,
                                        UserId user, MergedListId list,
                                        uint64_t offset, uint64_t count) {
    net::QueryRequest request;
    request.user = user;
    request.list = list;
    request.offset = offset;
    request.count = count;
    return service.Fetch(request);
  }

  /// Expects both servers to hold the same lists: handle, key and sealed
  /// bytes at every position. Both must be idle (quiescent).
  static void ExpectSameLists(const IndexServer& a, const IndexServer& b) {
    QuiescenceLock quiesced_a(a.quiescence());
    QuiescenceLock quiesced_b(b.quiescence());
    ASSERT_EQ(a.NumLists(), b.NumLists());
    for (MergedListId list = 0; list < a.NumLists(); ++list) {
      const auto& want = (*a.GetList(list))->elements();
      const auto& got = (*b.GetList(list))->elements();
      ASSERT_EQ(want.size(), got.size()) << "list " << list;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].handle, got[i].handle) << list << "@" << i;
        EXPECT_EQ(want[i].trs, got[i].trs) << list << "@" << i;
        EXPECT_EQ(want[i].sealed, got[i].sealed) << list << "@" << i;
      }
    }
  }

  Status DeleteVia(ShardedIndexService& service, UserId user,
                   MergedListId list, uint64_t handle) {
    net::DeleteRequest request;
    request.user = user;
    request.list = list;
    request.handle = handle;
    return service.Delete(request).status();
  }

  static constexpr UserId kAlice = 10;
  static constexpr UserId kBob = 20;
  crypto::KeyStore keys_;
};

TEST_F(ShardedIndexTest, RoutingPartitionsListsRoundRobin) {
  auto service = MakeService(10, 4);
  EXPECT_EQ(service->num_shards(), 4u);
  EXPECT_EQ(service->NumLists(), 10u);
  // Shards own {0,4,8}, {1,5,9}, {2,6}, {3,7}.
  EXPECT_EQ(service->shard(0).NumLists(), 3u);
  EXPECT_EQ(service->shard(1).NumLists(), 3u);
  EXPECT_EQ(service->shard(2).NumLists(), 2u);
  EXPECT_EQ(service->shard(3).NumLists(), 2u);

  for (MergedListId list = 0; list < 10; ++list) {
    ASSERT_TRUE(
        InsertVia(*service, kAlice, list, MakeElement(1, 0.5)).ok());
    EXPECT_EQ(service->ShardOfList(list), list % 4);
  }
  EXPECT_EQ(service->TotalElements(), 10u);
  for (MergedListId list = 0; list < 10; ++list) {
    auto merged = service->GetList(list);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ((*merged)->size(), 1u) << "list " << list;
  }
  // Global out-of-range ids are rejected at the routing layer.
  EXPECT_TRUE(service->GetList(10).status().IsOutOfRange());
  EXPECT_TRUE(
      InsertVia(*service, kAlice, 10, MakeElement(1, 0.5)).status()
          .IsOutOfRange());
}

TEST_F(ShardedIndexTest, HandlesEncodeShardAndStayUniqueAcrossShards) {
  auto service = MakeService(8, 4);
  std::set<uint64_t> handles;
  for (MergedListId list = 0; list < 8; ++list) {
    for (int i = 0; i < 5; ++i) {
      auto handle =
          InsertVia(*service, kAlice, list, MakeElement(1, 0.1 * i));
      ASSERT_TRUE(handle.ok());
      EXPECT_GT(*handle, 0u);
      // The handle's residue class names the owning shard.
      EXPECT_EQ(service->ShardOfHandle(*handle), service->ShardOfList(list));
      EXPECT_TRUE(handles.insert(*handle).second)
          << "duplicate handle " << *handle;
    }
  }
}

TEST_F(ShardedIndexTest, DeleteRoutesByHandleResidue) {
  auto service = MakeService(8, 4);
  auto h0 = InsertVia(*service, kAlice, 0, MakeElement(1, 0.9));  // shard 0
  // Shard 1, group 2: foreign to Bob.
  auto h1 = InsertVia(*service, kAlice, 1, MakeElement(2, 0.8));
  ASSERT_TRUE(h0.ok() && h1.ok());

  // A shard-1 handle cannot exist on a shard-0 list (foreign residue).
  EXPECT_TRUE(DeleteVia(*service, kAlice, 0, *h1).IsNotFound());
  // Same shard, but absent handle: the shard itself reports NotFound.
  EXPECT_TRUE(DeleteVia(*service, kAlice, 4, *h0).IsNotFound());
  // Foreign group: denied, and the owning shard counted the denial.
  EXPECT_TRUE(DeleteVia(*service, kBob, 1, *h1).IsPermissionDenied());
  EXPECT_EQ(service->stats().delete_denied, 1u);

  EXPECT_TRUE(DeleteVia(*service, kAlice, 0, *h0).ok());
  EXPECT_TRUE(DeleteVia(*service, kAlice, 1, *h1).ok());
  EXPECT_EQ(service->TotalElements(), 0u);
}

TEST_F(ShardedIndexTest, MultiFetchMatchesSequentialFetches) {
  // 3 workers force the cross-shard fan-out path even on one core.
  auto service = MakeService(12, 4, /*num_workers=*/3);
  EXPECT_EQ(service->num_workers(), 3u);
  for (MergedListId list = 0; list < 12; ++list) {
    for (int i = 0; i < 6; ++i) {
      crypto::GroupId g = (i % 2 == 0) ? 1 : 2;
      ASSERT_TRUE(
          InsertVia(*service, kAlice, list, MakeElement(g, 1.0 - 0.1 * i))
              .ok());
    }
  }

  net::MultiFetchRequest batch;
  batch.user = kBob;  // group 1 only: ACL filtering active
  for (MergedListId list = 0; list < 12; ++list) {
    net::FetchRange range;
    range.list = list;
    range.offset = 1;
    range.count = 2;
    batch.fetches.push_back(range);
  }
  auto batched = service->MultiFetch(batch);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->responses.size(), 12u);

  for (MergedListId list = 0; list < 12; ++list) {
    auto single = FetchVia(*service, kBob, list, 1, 2);
    ASSERT_TRUE(single.ok());
    const net::QueryResponse& from_batch = batched->responses[list];
    ASSERT_EQ(from_batch.elements.size(), single->elements.size());
    for (size_t i = 0; i < single->elements.size(); ++i) {
      EXPECT_EQ(from_batch.elements[i].handle, single->elements[i].handle);
    }
    EXPECT_EQ(from_batch.exhausted, single->exhausted);
  }
}

TEST_F(ShardedIndexTest, MultiFetchFailsAtomicallyOnBadRange) {
  auto service = MakeService(8, 4, /*num_workers=*/2);
  ASSERT_TRUE(InsertVia(*service, kAlice, 0, MakeElement(1, 0.5)).ok());
  net::MultiFetchRequest batch;
  batch.user = kAlice;
  net::FetchRange good;
  good.list = 0;
  good.count = 1;
  net::FetchRange bad;
  bad.list = 99;
  bad.count = 1;
  batch.fetches.push_back(good);
  batch.fetches.push_back(bad);
  EXPECT_TRUE(service->MultiFetch(batch).status().IsOutOfRange());
}

// The ISSUE's concurrency stress: several threads insert/delete/fetch with
// overlapping groups against the sharded service; afterwards handles are
// globally unique, stat totals add up, and the surviving element count is
// exact. Run under TSan in CI.
TEST_F(ShardedIndexTest, ConcurrentMixedWorkloadKeepsInvariants) {
  constexpr size_t kThreads = 4;
  constexpr size_t kListsTotal = 8;
  constexpr int kInsertsPerThread = 120;

  auto service = MakeService(kListsTotal, 4, /*num_workers=*/2);
  // Every thread's user is in both groups; elements overlap groups freely.
  std::vector<UserId> users;
  for (size_t t = 0; t < kThreads; ++t) {
    UserId user = static_cast<UserId>(100 + t);
    ASSERT_TRUE(service->GrantMembership(user, 1).ok());
    ASSERT_TRUE(service->GrantMembership(user, 2).ok());
    users.push_back(user);
  }

  // Elements are sealed up front: KeyStore is not part of the server's
  // thread-safety contract.
  std::vector<std::vector<EncryptedPostingElement>> sealed(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kInsertsPerThread; ++i) {
      crypto::GroupId g = (i % 3 == 0) ? 2 : 1;
      sealed[t].push_back(
          MakeElement(g, 0.001 * (static_cast<int>(t) * 1000 + i)));
    }
  }

  std::vector<std::vector<uint64_t>> handles(kThreads);
  std::atomic<uint64_t> deletes_attempted{0};
  std::atomic<uint64_t> deletes_succeeded{0};
  std::atomic<uint64_t> fetches_attempted{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kInsertsPerThread; ++i) {
        MergedListId list =
            static_cast<MergedListId>((t * 7 + static_cast<size_t>(i)) %
                                      kListsTotal);
        auto handle =
            InsertVia(*service, users[t], list, std::move(sealed[t][i]));
        if (!handle.ok()) {
          failed = true;
          return;
        }
        handles[t].push_back(*handle);

        // Interleave fetches (single + batched) over lists other threads
        // are writing.
        if (i % 5 == 0) {
          fetches_attempted.fetch_add(1);
          auto fetched = FetchVia(*service, users[(t + 1) % kThreads],
                                  (list + 1) % kListsTotal, 0, 3);
          if (!fetched.ok()) {
            failed = true;
            return;
          }
        }
        if (i % 16 == 0) {
          net::MultiFetchRequest batch;
          batch.user = users[t];
          for (MergedListId l = 0; l < kListsTotal; ++l) {
            net::FetchRange range;
            range.list = l;
            range.offset = 0;
            range.count = 2;
            batch.fetches.push_back(range);
          }
          fetches_attempted.fetch_add(batch.fetches.size());
          if (!service->MultiFetch(batch).ok()) {
            failed = true;
            return;
          }
        }

        // Delete every 4th of this thread's own elements, on the list it
        // inserted them into.
        if (i % 4 == 3) {
          uint64_t victim = handles[t][handles[t].size() - 2];
          MergedListId victim_list = static_cast<MergedListId>(
              (t * 7 + static_cast<size_t>(i) - 1) % kListsTotal);
          deletes_attempted.fetch_add(1);
          Status deleted = DeleteVia(*service, users[t], victim_list, victim);
          if (deleted.ok()) {
            deletes_succeeded.fetch_add(1);
          } else {
            failed = true;
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  // Handles are unique across all threads and shards, and their residue
  // matches the shard of the list they were inserted into.
  std::set<uint64_t> all_handles;
  for (const auto& per_thread : handles) {
    for (uint64_t h : per_thread) {
      EXPECT_TRUE(all_handles.insert(h).second) << "duplicate handle " << h;
    }
  }
  EXPECT_EQ(all_handles.size(), kThreads * kInsertsPerThread);

  // Stat totals across shards account for every request issued.
  ServerStats stats = service->stats();
  EXPECT_EQ(stats.insert_requests, kThreads * kInsertsPerThread);
  EXPECT_EQ(stats.insert_denied, 0u);
  EXPECT_EQ(stats.delete_requests, deletes_attempted.load());
  EXPECT_EQ(stats.delete_denied, 0u);
  EXPECT_EQ(stats.fetch_requests, fetches_attempted.load());

  // Exactly the non-deleted elements survive.
  EXPECT_EQ(service->TotalElements(),
            kThreads * kInsertsPerThread - deletes_succeeded.load());

  // Per-list group counts survived the concurrent churn consistently.
  for (MergedListId list = 0; list < kListsTotal; ++list) {
    auto merged = service->GetList(list);
    ASSERT_TRUE(merged.ok());
    std::map<crypto::GroupId, size_t> by_scan;
    for (const auto& element : (*merged)->elements()) ++by_scan[element.group];
    EXPECT_EQ((*merged)->group_counts(), by_scan);
  }
}

// A sharded pipeline must produce byte-for-byte identical query results to
// the one-shard deployment: sharding only re-homes lists, it never
// reorders elements within one.
TEST_F(ShardedIndexTest, ShardedPipelineMatchesOneShardResults) {
  auto build = [](size_t num_shards) {
    core::PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.preset.corpus.num_documents = 80;
    options.sigma = 0.01;
    options.build_baseline_index = false;
    options.num_shards = num_shards;
    options.num_shard_workers = num_shards > 1 ? 2 : 0;
    return core::BuildPipeline(options);
  };

  auto single = build(1);
  auto sharded = build(4);
  ASSERT_TRUE(single.ok()) << single.status();
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  // Every in-memory pipeline is a ShardedIndexService of num_shards.
  ASSERT_NE((*single)->sharded, nullptr);
  ASSERT_NE((*sharded)->sharded, nullptr);
  EXPECT_EQ((*single)->sharded->num_shards(), 1u);
  EXPECT_EQ((*sharded)->sharded->num_shards(), 4u);

  EXPECT_EQ((*single)->sharded->TotalElements(),
            (*sharded)->sharded->TotalElements());
  // (TotalWireSize is NOT compared: sharded handles are numerically larger,
  // so their varint encoding adds a few bytes per element.)

  // Same multi-term queries, identical TopKResults.
  size_t compared = 0;
  for (const auto& query : (*single)->query_log.queries) {
    if (compared >= 25) break;
    std::vector<text::TermId> terms;
    for (text::TermId term : query) {
      if ((*single)->corpus.DocumentFrequency(term) > 0) terms.push_back(term);
    }
    if (terms.empty()) continue;
    ++compared;
    auto a = (*single)->client->QueryTopKMulti(terms, 10);
    auto b = (*sharded)->client->QueryTopKMulti(terms, 10);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_EQ(a->results.size(), b->results.size());
    for (size_t i = 0; i < a->results.size(); ++i) {
      EXPECT_EQ(a->results[i].doc_id, b->results[i].doc_id);
      EXPECT_DOUBLE_EQ(a->results[i].score, b->results[i].score);
    }
    EXPECT_EQ(a->trace.elements_fetched, b->trace.elements_fetched);
    EXPECT_EQ(a->trace.requests, b->trace.requests);
  }
  EXPECT_GT(compared, 0u);
}

// The one-shard rule (zerber::ShardSeed): a one-shard service keeps the
// backend seed and the default handle space, so it draws the same random
// keys and assigns the same handles as a bare IndexServer on that seed.
TEST_F(ShardedIndexTest, OneShardServiceDrawsLikeABareServer) {
  ShardedIndexService::Options options;
  options.num_shards = 1;
  options.num_workers = 0;
  options.placement = Placement::kRandomPlacement;
  options.seed = 77;
  ShardedIndexService service(3, options);
  IndexServer bare(3, Placement::kRandomPlacement, 77);
  ASSERT_TRUE(service.AddGroup(1).ok());
  ASSERT_TRUE(service.GrantMembership(kAlice, 1).ok());
  {
    // Provisioning before any traffic: quiescent.
    QuiescenceLock quiesced(bare.quiescence());
    ASSERT_TRUE(bare.acl().AddGroup(1).ok());
    ASSERT_TRUE(bare.acl().GrantMembership(kAlice, 1).ok());
  }
  for (int i = 0; i < 30; ++i) {
    MergedListId list = static_cast<MergedListId>(i % 3);
    EncryptedPostingElement element = MakeElement(1, 0.5);
    auto want = bare.Insert(kAlice, list, element);
    auto got = InsertVia(service, kAlice, list, std::move(element));
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(*want, *got);
  }
  ExpectSameLists(bare, service.shard(0));
}

// The one-shard rule seen from the pipeline: an in-memory one-shard pipeline
// and a one-partition durable pipeline built from the same options hold the
// same lists and serve the same bytes, under either placement — random
// placement included, whose keys are draws from the shard's seed.
TEST_F(ShardedIndexTest, OneShardInMemoryAndDurablePipelinesServeSameBytes) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("zr-one-shard-rule-" + std::to_string(::getpid()));
  for (Placement placement :
       {Placement::kTrsSorted, Placement::kRandomPlacement}) {
    SCOPED_TRACE(placement == Placement::kTrsSorted ? "trs-sorted" : "random");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    core::PipelineOptions options;
    options.preset = synth::TinyPreset();
    options.preset.corpus.num_documents = 80;
    options.sigma = 0.01;
    options.build_baseline_index = false;
    options.build_query_log = false;
    options.placement = placement;
    auto in_memory = core::BuildPipeline(options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status();
    options.data_dir = dir.string();
    options.wal_sync_mode = store::WalSyncMode::kNone;
    auto durable = core::BuildPipeline(options);
    ASSERT_TRUE(durable.ok()) << durable.status();
    ASSERT_EQ((*in_memory)->sharded->num_shards(), 1u);
    ASSERT_EQ((*durable)->durable->num_shards(), 1u);

    ExpectSameLists((*in_memory)->sharded->shard(0),
                    *(*durable)->durable->single());

    // A fixed query set: two windows of every list, then every list's head
    // in one MultiFetch.
    net::ZerberService& a = *(*in_memory)->sharded;
    net::ZerberService& b = *(*durable)->durable;
    const UserId user = (*in_memory)->user;
    net::MultiFetchRequest heads{user, {}};
    for (MergedListId list = 0; list < (*in_memory)->plan.NumLists(); ++list) {
      for (auto [offset, count] : {std::pair<uint64_t, uint64_t>{0, 10},
                                   std::pair<uint64_t, uint64_t>{5, 40}}) {
        auto want = a.Fetch({user, list, offset, count});
        auto got = b.Fetch({user, list, offset, count});
        ASSERT_TRUE(want.ok() && got.ok()) << "list " << list;
        EXPECT_EQ(net::Serialize(*want), net::Serialize(*got)) << list;
      }
      heads.fetches.push_back({list, 0, 10});
    }
    auto want = a.MultiFetch(heads);
    auto got = b.MultiFetch(heads);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(net::Serialize(*want), net::Serialize(*got));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Both transports work unchanged against the sharded backend.
TEST_F(ShardedIndexTest, TcpTransportOverShardedBackend) {
  auto service = MakeService(6, 3, /*num_workers=*/1);
  auto server = net::TcpServer::Start(service.get());
  ASSERT_TRUE(server.ok()) << server.status();
  net::TcpTransport tcp((*server)->address());
  net::DirectTransport direct(service.get());

  for (MergedListId list = 0; list < 6; ++list) {
    net::InsertRequest insert;
    insert.user = kAlice;
    insert.list = list;
    insert.element = MakeElement(1, 0.5 + 0.05 * list);
    auto acked = tcp.Insert(insert);
    ASSERT_TRUE(acked.ok());
    EXPECT_EQ(service->ShardOfHandle(acked->handle),
              service->ShardOfList(list));
  }

  net::MultiFetchRequest batch;
  batch.user = kAlice;
  for (MergedListId list = 0; list < 6; ++list) {
    net::FetchRange range;
    range.list = list;
    range.count = 5;
    batch.fetches.push_back(range);
  }
  tcp.ResetStats();  // count the MultiFetch exchange alone
  direct.ResetStats();
  auto via_tcp = tcp.MultiFetch(batch);
  auto via_direct = direct.MultiFetch(batch);
  ASSERT_TRUE(via_tcp.ok());
  ASSERT_TRUE(via_direct.ok());
  ASSERT_EQ(via_tcp->responses.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(via_tcp->responses[i].elements.size(),
              via_direct->responses[i].elements.size());
    EXPECT_EQ(via_tcp->responses[i].exhausted,
              via_direct->responses[i].exhausted);
  }
  // Identical analytic vs serialized byte accounting over the same backend.
  EXPECT_EQ(direct.stats().bytes_down, tcp.stats().bytes_down);

  // Errors cross the wire as encoded statuses.
  net::DeleteRequest bogus;
  bogus.user = kAlice;
  bogus.list = 0;
  bogus.handle = 12345u * 3u;  // right residue, no such element
  EXPECT_TRUE(tcp.Delete(bogus).status().IsNotFound());
}

// A traced MultiFetch served over TCP carries back, in its response frame,
// the spans of every shard batch: the fan-out pool's threads record into
// the request's trace too, not only the batch the dispatch thread runs.
TEST_F(ShardedIndexTest, TracedMultiFetchOverTcpReturnsEveryShardsSpans) {
  auto service = MakeService(8, 4, /*num_workers=*/3);
  for (MergedListId list = 0; list < 4; ++list) {
    ASSERT_TRUE(InsertVia(*service, kAlice, list, MakeElement(1, 0.5)).ok());
  }
  auto server = net::TcpServer::Start(service.get());
  ASSERT_TRUE(server.ok()) << server.status();
  net::TcpTransport tcp((*server)->address());

  net::MultiFetchRequest batch;
  batch.user = kAlice;
  for (MergedListId list = 0; list < 4; ++list) {  // one range per shard
    net::FetchRange range;
    range.list = list;
    range.count = 1;
    batch.fetches.push_back(range);
  }
  for (uint64_t round = 0; round < 20; ++round) {
    obs::ScopedTrace traced(obs::TraceContext{0x5EED00 + round, 1});
    auto fetched = tcp.MultiFetch(batch);
    ASSERT_TRUE(fetched.ok()) << fetched.status();
    ASSERT_EQ(fetched->responses.size(), 4u);
    size_t index_serves = 0;
    std::multiset<uint64_t> fanout_shards;
    for (const obs::SpanRecord& span : tcp.session().response_spans()) {
      if (span.stage == obs::Stage::kIndexServe) ++index_serves;
      if (span.stage == obs::Stage::kRouterFanout) {
        fanout_shards.insert(span.detail);
      }
    }
    EXPECT_EQ(index_serves, 4u) << "round " << round;
    EXPECT_EQ(fanout_shards, (std::multiset<uint64_t>{0, 1, 2, 3}))
        << "round " << round;
  }
  (*server)->Stop();
}

// --- The fan-out engine over scripted shards (no sockets, no index) ------

/// A scripted shard handle: counts every call, answers MultiFetch with one
/// empty response per range (minus `short_by`) unless `fail` is set, and
/// answers ACL changes with `acl_status`.
class FakeShard : public net::ShardService {
 public:
  StatusOr<net::InsertResponse> Insert(const net::InsertRequest&) override {
    ++calls;
    return net::InsertResponse{};
  }
  StatusOr<net::QueryResponse> Fetch(const net::QueryRequest&) override {
    ++calls;
    return net::QueryResponse{};
  }
  StatusOr<net::MultiFetchResponse> MultiFetch(
      const net::MultiFetchRequest& request) override {
    ++calls;
    if (!fail.ok()) return fail;
    net::MultiFetchResponse response;
    response.responses.resize(request.fetches.size() - short_by);
    return response;
  }
  StatusOr<net::DeleteResponse> Delete(const net::DeleteRequest&) override {
    ++calls;
    return net::DeleteResponse{};
  }
  Status Acl(const net::AclRequest&) override {
    ++calls;
    return acl_status;
  }
  StatusOr<net::StatsResponse> Stats() override {
    ++calls;
    return net::StatsResponse{};
  }

  std::atomic<int> calls{0};
  Status fail = Status::OK();
  size_t short_by = 0;
  Status acl_status = Status::OK();
};

class ShardRouterTest : public ::testing::Test {
 protected:
  /// A router over `num_shards` fakes serving 2 lists per shard.
  void Build(size_t num_shards, size_t num_workers) {
    std::vector<std::unique_ptr<net::ShardService>> handles;
    for (size_t s = 0; s < num_shards; ++s) {
      auto fake = std::make_unique<FakeShard>();
      fakes_.push_back(fake.get());
      handles.push_back(std::move(fake));
    }
    router_ = std::make_unique<net::ShardRouter>(
        2 * num_shards, std::move(handles), num_workers);
  }

  static net::MultiFetchRequest Ranges(std::vector<uint32_t> lists) {
    net::MultiFetchRequest request;
    for (uint32_t list : lists) {
      net::FetchRange range;
      range.list = list;
      range.count = 1;
      request.fetches.push_back(range);
    }
    return request;
  }

  std::vector<FakeShard*> fakes_;
  std::unique_ptr<net::ShardRouter> router_;
};

TEST_F(ShardRouterTest, ShortShardResponseIsInternal) {
  Build(/*num_shards=*/2, /*num_workers=*/1);
  fakes_[1]->short_by = 1;
  // Shard 1 owns lists 1 and 3 and answers only one of its two ranges.
  auto fetched = router_->MultiFetch(Ranges({0, 1, 3}));
  EXPECT_TRUE(fetched.status().IsInternal()) << fetched.status();
  EXPECT_EQ(fakes_[0]->calls.load(), 1);
  EXPECT_EQ(fakes_[1]->calls.load(), 1);
}

TEST_F(ShardRouterTest, FirstErrorIsThatOfTheEarliestStartingBatch) {
  Build(/*num_shards=*/3, /*num_workers=*/2);
  fakes_[1]->fail = Status::PermissionDenied("shard one");
  fakes_[2]->fail = Status::NotFound("shard two");
  for (int round = 0; round < 50; ++round) {
    // Shard 2's batch starts at range 0, shard 1's at range 1.
    Status first = router_->MultiFetch(Ranges({2, 1, 0, 4})).status();
    EXPECT_TRUE(first.IsNotFound()) << first;
    // Shard 1's batch starts at range 1, shard 2's at range 2.
    Status second = router_->MultiFetch(Ranges({0, 1, 2, 5})).status();
    EXPECT_TRUE(second.IsPermissionDenied()) << second;
  }
}

TEST_F(ShardRouterTest, OutOfRangeListFailsBeforeAnyShardIsCalled) {
  Build(/*num_shards=*/2, /*num_workers=*/1);
  // Lists 0..3 exist; 4 does not, and it comes last.
  EXPECT_TRUE(router_->MultiFetch(Ranges({0, 1, 4})).status().IsOutOfRange());
  EXPECT_EQ(fakes_[0]->calls.load(), 0);
  EXPECT_EQ(fakes_[1]->calls.load(), 0);
}

TEST_F(ShardRouterTest, AclBroadcastStopsAtTheFirstFailingShard) {
  Build(/*num_shards=*/3, /*num_workers=*/0);
  fakes_[1]->acl_status = Status::Unavailable("shard one down");
  Status granted = router_->GrantMembership(/*user=*/7, /*group=*/1);
  EXPECT_TRUE(granted.IsUnavailable()) << granted;
  EXPECT_EQ(granted.message(), "shard one down");
  EXPECT_EQ(fakes_[0]->calls.load(), 1);
  EXPECT_EQ(fakes_[1]->calls.load(), 1);
  EXPECT_EQ(fakes_[2]->calls.load(), 0);
}

}  // namespace
}  // namespace zr::zerber
