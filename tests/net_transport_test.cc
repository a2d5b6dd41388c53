#include "net/transport.h"

#include <gtest/gtest.h>

#include <memory>

#include "crypto/keys.h"
#include "net/bandwidth.h"
#include "net/tcp.h"

namespace zr::net {
namespace {

// Both transports implement the same service contract; tcp (a TcpServer on
// the same IndexService) must behave observably identically to direct
// while routing every byte through the wire format and a socket.
class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : keys_("transport-test"),
        server_(/*num_lists=*/2, zerber::Placement::kTrsSorted, 5),
        service_(&server_),
        direct_(&service_),
        tcp_server_(StartServer(&service_)),
        tcp_(tcp_server_->address()) {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    // Fixture setup before any traffic: quiescent by construction.
    QuiescenceLock quiesced(server_.quiescence());
    EXPECT_TRUE(server_.acl().AddGroup(1).ok());
    EXPECT_TRUE(server_.acl().GrantMembership(kUser, 1).ok());
  }

  static std::unique_ptr<TcpServer> StartServer(IndexService* service) {
    auto started = TcpServer::Start(service);
    EXPECT_TRUE(started.ok()) << started.status();
    return std::move(started).value();
  }

  InsertRequest MakeInsert(uint32_t list, double trs) {
    auto element = zerber::SealPostingElement(
        zerber::PostingPayload{3, 4, 0.25}, 1, trs, &keys_);
    EXPECT_TRUE(element.ok());
    InsertRequest request;
    request.user = kUser;
    request.list = list;
    request.element = std::move(element).value();
    return request;
  }

  static constexpr zerber::UserId kUser = 1;
  crypto::KeyStore keys_;
  zerber::IndexServer server_;
  IndexService service_;
  DirectTransport direct_;
  std::unique_ptr<TcpServer> tcp_server_;
  TcpTransport tcp_;
};

TEST_F(TransportTest, InsertBehavesIdenticallyOverBothTransports) {
  auto via_direct = direct_.Insert(MakeInsert(0, 0.9));
  auto via_tcp = tcp_.Insert(MakeInsert(0, 0.8));
  ASSERT_TRUE(via_direct.ok());
  ASSERT_TRUE(via_tcp.ok());
  EXPECT_EQ(server_.TotalElements(), 2u);
  EXPECT_NE(via_direct->handle, via_tcp->handle);
  // The ack message is tiny either way, and both account the same bytes.
  EXPECT_GT(via_direct->wire_size, 0u);
  EXPECT_EQ(via_direct->wire_size, WireSize(*via_direct));
}

TEST_F(TransportTest, FetchReturnsIdenticalResponsesAndBytes) {
  for (double trs : {0.9, 0.6, 0.3}) {
    ASSERT_TRUE(direct_.Insert(MakeInsert(0, trs)).ok());
  }
  direct_.ResetStats();
  tcp_.ResetStats();

  QueryRequest request;
  request.user = kUser;
  request.list = 0;
  request.count = 10;
  auto via_direct = direct_.Fetch(request);
  auto via_tcp = tcp_.Fetch(request);
  ASSERT_TRUE(via_direct.ok());
  ASSERT_TRUE(via_tcp.ok());

  ASSERT_EQ(via_direct->elements.size(), via_tcp->elements.size());
  for (size_t i = 0; i < via_direct->elements.size(); ++i) {
    EXPECT_EQ(via_direct->elements[i].sealed, via_tcp->elements[i].sealed);
    EXPECT_EQ(via_direct->elements[i].handle, via_tcp->elements[i].handle);
  }
  EXPECT_EQ(via_direct->exhausted, via_tcp->exhausted);

  // Byte accounting: tcp counts real serialized messages; direct's
  // analytic accounting must agree bit-for-bit.
  EXPECT_EQ(via_direct->wire_size, via_tcp->wire_size);
  EXPECT_EQ(via_tcp->wire_size, Serialize(*via_tcp).size());
  EXPECT_EQ(direct_.stats().exchanges, tcp_.stats().exchanges);
  EXPECT_EQ(direct_.stats().bytes_up, tcp_.stats().bytes_up);
  EXPECT_EQ(direct_.stats().bytes_down, tcp_.stats().bytes_down);
  EXPECT_EQ(tcp_.stats().bytes_up, Serialize(request).size());
}

// ServerStats::bytes_served counts what a response carries: the served
// elements' wire bytes, without the TRS the server keeps.
TEST_F(TransportTest, BytesServedEqualsServedElementWireBytes) {
  for (double trs : {0.9, 0.6, 0.3}) {
    ASSERT_TRUE(direct_.Insert(MakeInsert(0, trs)).ok());
    ASSERT_TRUE(direct_.Insert(MakeInsert(1, trs)).ok());
  }
  auto served_bytes = [](const QueryResponse& response) {
    uint64_t total = 0;
    for (const zerber::ServedElement& e : response.elements) {
      total += e.WireSize();
    }
    return total;
  };

  uint64_t before = server_.stats().bytes_served;
  QueryRequest request;
  request.user = kUser;
  request.list = 0;
  request.count = 10;
  auto fetched = tcp_.Fetch(request);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->elements.size(), 3u);
  EXPECT_EQ(server_.stats().bytes_served - before, served_bytes(*fetched));
  // The rest of the message: tag, exhausted flag and a one-byte count.
  EXPECT_EQ(fetched->wire_size, served_bytes(*fetched) + 3);

  before = server_.stats().bytes_served;
  MultiFetchRequest multi;
  multi.user = kUser;
  multi.fetches.push_back(FetchRange{0, 1, 5});
  multi.fetches.push_back(FetchRange{1, 0, 2});
  auto batched = tcp_.MultiFetch(multi);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->responses.size(), 2u);
  EXPECT_EQ(server_.stats().bytes_served - before,
            served_bytes(batched->responses[0]) +
                served_bytes(batched->responses[1]));
}

TEST_F(TransportTest, MultiFetchReturnsIdenticalResponsesAndBytes) {
  ASSERT_TRUE(direct_.Insert(MakeInsert(0, 0.9)).ok());
  ASSERT_TRUE(direct_.Insert(MakeInsert(1, 0.5)).ok());
  direct_.ResetStats();
  tcp_.ResetStats();

  MultiFetchRequest request;
  request.user = kUser;
  request.fetches.push_back(FetchRange{0, 0, 5});
  request.fetches.push_back(FetchRange{1, 0, 5});
  auto via_direct = direct_.MultiFetch(request);
  auto via_tcp = tcp_.MultiFetch(request);
  ASSERT_TRUE(via_direct.ok());
  ASSERT_TRUE(via_tcp.ok());

  ASSERT_EQ(via_direct->responses.size(), 2u);
  ASSERT_EQ(via_tcp->responses.size(), 2u);
  EXPECT_EQ(via_direct->wire_size, via_tcp->wire_size);
  EXPECT_EQ(via_tcp->wire_size, Serialize(*via_tcp).size());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(via_direct->responses[i].wire_size,
              via_tcp->responses[i].wire_size);
  }
  EXPECT_EQ(direct_.stats().bytes_up, tcp_.stats().bytes_up);
  EXPECT_EQ(direct_.stats().bytes_down, tcp_.stats().bytes_down);
}

TEST_F(TransportTest, DeleteBehavesIdenticallyOverBothTransports) {
  auto inserted = direct_.Insert(MakeInsert(0, 0.7));
  ASSERT_TRUE(inserted.ok());
  DeleteRequest request;
  request.user = kUser;
  request.list = 0;
  request.handle = inserted->handle;
  ASSERT_TRUE(tcp_.Delete(request).ok());
  EXPECT_EQ(server_.TotalElements(), 0u);
  // Second delete: the NotFound status must cross the wire intact.
  auto again = tcp_.Delete(request);
  EXPECT_TRUE(again.status().IsNotFound());
}

TEST_F(TransportTest, ServerErrorsCrossTheTcpWireIntact) {
  QueryRequest request;
  request.user = kUser;
  request.list = 99;  // no such list
  request.count = 1;
  auto via_direct = direct_.Fetch(request);
  auto via_tcp = tcp_.Fetch(request);
  ASSERT_FALSE(via_direct.ok());
  ASSERT_FALSE(via_tcp.ok());
  // Same code AND same message: the error-status encoding is lossless.
  EXPECT_EQ(via_tcp.status(), via_direct.status());
  EXPECT_TRUE(via_tcp.status().IsOutOfRange());
  // The error response was accounted on both sides, identically.
  EXPECT_EQ(direct_.stats().bytes_down, tcp_.stats().bytes_down);
  EXPECT_GT(tcp_.stats().bytes_down, 0u);
}

TEST_F(TransportTest, LinkModelPricesTheStats) {
  ASSERT_TRUE(tcp_.Insert(MakeInsert(0, 0.5)).ok());
  QueryRequest request;
  request.user = kUser;
  request.list = 0;
  request.count = 10;
  ASSERT_TRUE(tcp_.Fetch(request).ok());

  const TransportStats& stats = tcp_.stats();
  EXPECT_EQ(stats.exchanges, 2u);
  EXPECT_GT(stats.bytes_up, 0u);
  EXPECT_GT(stats.bytes_down, 0u);
  // Each exchange pays the modem latency both ways, plus its bytes.
  EXPECT_GT(TransferSeconds(stats, kModem56k, kModem56k),
            2 * 2 * kModem56k.latency_seconds);
}

TEST_F(TransportTest, MakeTransportBuildsTheRequestedKind) {
  auto direct = MakeTransport(TransportKind::kDirect, &service_);
  auto tcp = MakeTransport(TransportKind::kTcp, nullptr,
                           tcp_server_->address());
  ASSERT_NE(direct, nullptr);
  ASSERT_NE(tcp, nullptr);
  EXPECT_NE(dynamic_cast<DirectTransport*>(direct.get()), nullptr);
  EXPECT_NE(dynamic_cast<TcpTransport*>(tcp.get()), nullptr);
  EXPECT_STREQ(TransportKindName(TransportKind::kDirect), "direct");
  EXPECT_STREQ(TransportKindName(TransportKind::kTcp), "tcp");
  // Exactly two kinds: any other name is refused.
  EXPECT_TRUE(ParseTransportKind("loopback").status().IsInvalidArgument());
}

}  // namespace
}  // namespace zr::net
