#include "net/messages.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "crypto/keys.h"
#include "util/random.h"

namespace zr::net {
namespace {

zerber::EncryptedPostingElement MakeElement(crypto::KeyStore* keys,
                                            crypto::GroupId group,
                                            double trs) {
  auto e = zerber::SealPostingElement(zerber::PostingPayload{1, 2, 0.5},
                                      group, trs, keys);
  EXPECT_TRUE(e.ok());
  return std::move(e).value();
}

// An element as a query response serves it.
zerber::ServedElement MakeServed(crypto::KeyStore* keys, crypto::GroupId group,
                                 uint64_t handle) {
  zerber::ServedElement e = zerber::ServeElement(MakeElement(keys, group, 0.5));
  e.handle = handle;
  return e;
}

std::string HexOf(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kHex[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kHex[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

TEST(MessagesTest, QueryRequestRoundTrip) {
  QueryRequest request{7, 42, 100, 20};
  auto parsed = ParseQueryRequest(SerializeQueryRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, request);
}

TEST(MessagesTest, QueryRequestRejectsCorruptTag) {
  std::string wire = SerializeQueryRequest(QueryRequest{1, 2, 3, 4});
  wire[0] = 99;
  EXPECT_TRUE(ParseQueryRequest(wire).status().IsCorruption());
}

TEST(MessagesTest, QueryRequestRejectsTruncation) {
  std::string wire = SerializeQueryRequest(QueryRequest{1, 2, 300, 400});
  EXPECT_TRUE(
      ParseQueryRequest(wire.substr(0, wire.size() - 1)).status().IsCorruption());
}

TEST(MessagesTest, QueryRequestRejectsTrailingBytes) {
  std::string wire = SerializeQueryRequest(QueryRequest{1, 2, 3, 4}) + "zz";
  EXPECT_TRUE(ParseQueryRequest(wire).status().IsCorruption());
}

TEST(MessagesTest, QueryResponseRoundTrip) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  QueryResponse response;
  response.exhausted = true;
  response.elements.push_back(MakeServed(&keys, 1, 11));
  response.elements.push_back(MakeServed(&keys, 1, 12));

  auto parsed = ParseQueryResponse(SerializeQueryResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->exhausted);
  ASSERT_EQ(parsed->elements.size(), 2u);
  EXPECT_EQ(parsed->elements[0].handle, 11u);
  EXPECT_EQ(parsed->elements[0].sealed, response.elements[0].sealed);
  EXPECT_EQ(parsed->elements[1].group, 1u);
}

// Golden bytes of a one-element response: tag, exhausted flag, element
// count, then the served element — varint group, varint handle and the
// length-prefixed sealed bytes of PostingElementGoldenTest's first seal,
// with no TRS.
TEST(MessagesTest, ServedElementIsByteIdentical) {
  crypto::KeyStore keys("seed");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  auto stored = zerber::SealPostingElement(zerber::PostingPayload{1, 2, 0.5},
                                           1, 0.5, &keys);
  ASSERT_TRUE(stored.ok());
  stored->handle = 300;
  QueryResponse response;
  response.exhausted = true;
  response.elements.push_back(zerber::ServeElement(*stored));

  std::string wire = SerializeQueryResponse(response);
  EXPECT_EQ(HexOf(wire),
            "020101"
            "01ac021a"
            "7828dcb30d5f38ef6dabf328574baf1ce7b7bfe9b8dc48abfa6c");
  EXPECT_EQ(wire.size(), WireSizeOfQueryResponse(response));
  EXPECT_EQ(response.elements[0].WireSize(), stored->ServedWireSize());
  EXPECT_EQ(stored->WireSize(), stored->ServedWireSize() + 8);

  auto parsed = ParseQueryResponse(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->elements.size(), 1u);
  EXPECT_EQ(parsed->elements[0].group, 1u);
  EXPECT_EQ(parsed->elements[0].handle, 300u);
  EXPECT_EQ(parsed->elements[0].sealed, stored->sealed);
  auto opened = zerber::OpenPostingElement(parsed->elements[0], keys);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, (zerber::PostingPayload{1, 2, 0.5}));
}

TEST(MessagesTest, ServedElementRoundTrip) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(4).ok());
  zerber::ServedElement element = MakeServed(&keys, 4, uint64_t{1} << 40);
  std::string wire;
  zerber::AppendServedElement(&wire, element);
  EXPECT_EQ(wire.size(), element.WireSize());
  wire += "next";

  std::string_view cursor = wire;
  auto parsed = zerber::ParseServedElement(&cursor);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->group, 4u);
  EXPECT_EQ(parsed->handle, uint64_t{1} << 40);
  EXPECT_EQ(parsed->sealed, element.sealed);
  EXPECT_EQ(cursor, "next");  // consumed exactly one element
  for (size_t n = 0; n < element.WireSize(); ++n) {
    std::string_view truncated = std::string_view(wire).substr(0, n);
    EXPECT_TRUE(zerber::ParseServedElement(&truncated).status().IsCorruption())
        << n;
  }
}

TEST(MessagesTest, EmptyQueryResponseRoundTrip) {
  QueryResponse response;
  auto parsed = ParseQueryResponse(SerializeQueryResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->elements.empty());
  EXPECT_FALSE(parsed->exhausted);
}

TEST(MessagesTest, QueryResponseRejectsElementCountMismatch) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  QueryResponse response;
  response.elements.push_back(MakeServed(&keys, 1, 7));
  std::string wire = SerializeQueryResponse(response);
  // Truncate mid-element.
  EXPECT_TRUE(ParseQueryResponse(wire.substr(0, wire.size() - 5))
                  .status()
                  .IsCorruption());
}

// A served element takes at least 3 bytes, so an element count beyond a
// third of the bytes left is corrupt. Regression: an 8-byte response that
// claimed 2^40 elements used to reserve them and abort on bad_alloc.
TEST(MessagesTest, QueryResponseRejectsOverlongCount) {
  std::string wire;
  wire.push_back(2);  // QueryResponse tag
  wire.push_back(0);  // exhausted
  // varint64 count = 2^40
  for (char c : {'\x80', '\x80', '\x80', '\x80', '\x80', '\x01'}) {
    wire.push_back(c);
  }
  EXPECT_TRUE(ParseQueryResponse(wire).status().IsCorruption());

  // The bound is tight: three bytes hold one empty element, five not two.
  std::string one = std::string("\x02\x00\x01", 3) + std::string(3, '\0');
  auto parsed = ParseQueryResponse(one);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->elements.size(), 1u);
  std::string two = std::string("\x02\x00\x02", 3) + std::string(5, '\0');
  EXPECT_TRUE(ParseQueryResponse(two).status().IsCorruption());
}

TEST(MessagesTest, MultiFetchResponseRejectsNestedOverlongCount) {
  std::string sub;
  sub.push_back(2);  // QueryResponse tag
  sub.push_back(0);  // exhausted
  for (char c : {'\x80', '\x80', '\x80', '\x80', '\x80', '\x01'}) {
    sub.push_back(c);
  }
  std::string wire;
  wire.push_back(6);  // MultiFetchResponse tag
  wire.push_back(1);  // one nested response
  wire.push_back(static_cast<char>(sub.size()));
  wire += sub;
  EXPECT_TRUE(ParseMultiFetchResponse(wire).status().IsCorruption());
}

TEST(MessagesTest, InsertRequestRoundTrip) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(3).ok());
  InsertRequest request;
  request.user = 11;
  request.list = 5;
  request.element = MakeElement(&keys, 3, 0.9);

  auto parsed = ParseInsertRequest(SerializeInsertRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->user, 11u);
  EXPECT_EQ(parsed->list, 5u);
  EXPECT_EQ(parsed->element.sealed, request.element.sealed);
}

TEST(MessagesTest, MessageTypesDoNotCrossParse) {
  std::string query = SerializeQueryRequest(QueryRequest{1, 2, 3, 4});
  EXPECT_TRUE(ParseInsertRequest(query).status().IsCorruption());
  EXPECT_TRUE(ParseQueryResponse(query).status().IsCorruption());
}

TEST(MessagesTest, RequestSizeIsSmall) {
  // Requests must be tiny compared to responses (the uplink is a modem).
  std::string wire = SerializeQueryRequest(QueryRequest{1, 100, 1000, 50});
  EXPECT_LT(wire.size(), 16u);
}

// ---------------------------------------------------------------------------
// New message types: InsertResponse, MultiFetch, Delete, error statuses.
// ---------------------------------------------------------------------------

TEST(MessagesTest, InsertResponseRoundTrip) {
  InsertResponse response;
  response.handle = 0xDEADBEEFu;
  auto parsed = ParseInsertResponse(SerializeInsertResponse(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, response);
}

TEST(MessagesTest, InsertResponseRejectsCorruptInput) {
  std::string wire = SerializeInsertResponse(InsertResponse{12345, 0});
  // Garbage prefix.
  std::string garbage = wire;
  garbage[0] = 99;
  EXPECT_TRUE(ParseInsertResponse(garbage).status().IsCorruption());
  // Truncation at every length.
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(ParseInsertResponse(wire.substr(0, n)).ok()) << n;
  }
  // Trailing bytes.
  EXPECT_TRUE(ParseInsertResponse(wire + "x").status().IsCorruption());
}

TEST(MessagesTest, MultiFetchRequestRoundTrip) {
  MultiFetchRequest request;
  request.user = 9;
  request.fetches.push_back(FetchRange{3, 0, 10});
  request.fetches.push_back(FetchRange{3, 100, 1 << 20});
  request.fetches.push_back(FetchRange{77, 5, 0});
  auto parsed = ParseMultiFetchRequest(SerializeMultiFetchRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, request);
}

TEST(MessagesTest, EmptyMultiFetchRequestRoundTrip) {
  MultiFetchRequest request;
  request.user = 1;
  auto parsed = ParseMultiFetchRequest(SerializeMultiFetchRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->fetches.empty());
}

TEST(MessagesTest, MultiFetchRequestRejectsCorruptInput) {
  MultiFetchRequest request;
  request.user = 2;
  request.fetches.push_back(FetchRange{1, 2, 3});
  std::string wire = SerializeMultiFetchRequest(request);
  std::string garbage = wire;
  garbage[0] = 99;
  EXPECT_TRUE(ParseMultiFetchRequest(garbage).status().IsCorruption());
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(ParseMultiFetchRequest(wire.substr(0, n)).ok()) << n;
  }
  EXPECT_TRUE(ParseMultiFetchRequest(wire + "z").status().IsCorruption());
}

TEST(MessagesTest, MultiFetchRequestRejectsOverlongCount) {
  // A fetch count far beyond the message's actual size must be rejected
  // before any allocation happens.
  std::string wire;
  wire.push_back(5);  // MultiFetchRequest tag
  wire.push_back(1);  // user
  // varint64 count = 2^40
  for (char c : {'\x80', '\x80', '\x80', '\x80', '\x80', '\x01'}) {
    wire.push_back(c);
  }
  EXPECT_TRUE(ParseMultiFetchRequest(wire).status().IsCorruption());
}

TEST(MessagesTest, MultiFetchResponseRoundTrip) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  MultiFetchResponse response;
  QueryResponse a;
  a.elements.push_back(MakeServed(&keys, 1, 1));
  a.elements.push_back(MakeServed(&keys, 1, 2));
  QueryResponse b;
  b.exhausted = true;
  response.responses.push_back(a);
  response.responses.push_back(b);

  std::string wire = SerializeMultiFetchResponse(response);
  auto parsed = ParseMultiFetchResponse(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->responses.size(), 2u);
  ASSERT_EQ(parsed->responses[0].elements.size(), 2u);
  EXPECT_EQ(parsed->responses[0].elements[0].sealed, a.elements[0].sealed);
  EXPECT_FALSE(parsed->responses[0].exhausted);
  EXPECT_TRUE(parsed->responses[1].exhausted);
  EXPECT_TRUE(parsed->responses[1].elements.empty());
  // The parser records each nested response's own wire footprint.
  EXPECT_EQ(parsed->responses[0].wire_size, WireSizeOfQueryResponse(a));
  EXPECT_EQ(parsed->responses[1].wire_size, WireSizeOfQueryResponse(b));
}

TEST(MessagesTest, MultiFetchResponseRejectsCorruptInput) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  MultiFetchResponse response;
  QueryResponse sub;
  sub.elements.push_back(MakeServed(&keys, 1, 3));
  response.responses.push_back(sub);
  std::string wire = SerializeMultiFetchResponse(response);
  std::string garbage = wire;
  garbage[0] = 99;
  EXPECT_TRUE(ParseMultiFetchResponse(garbage).status().IsCorruption());
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(ParseMultiFetchResponse(wire.substr(0, n)).ok()) << n;
  }
  EXPECT_TRUE(ParseMultiFetchResponse(wire + "q").status().IsCorruption());
}

TEST(MessagesTest, DeleteRequestRoundTrip) {
  DeleteRequest request{11, 7, 123456789};
  auto parsed = ParseDeleteRequest(SerializeDeleteRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, request);
}

TEST(MessagesTest, DeleteResponseRoundTrip) {
  std::string wire = SerializeDeleteResponse(DeleteResponse{});
  EXPECT_TRUE(ParseDeleteResponse(wire).ok());
  EXPECT_TRUE(ParseDeleteResponse(wire + "x").status().IsCorruption());
  EXPECT_FALSE(ParseDeleteResponse("").ok());
}

TEST(MessagesTest, ErrorResponseCarriesStatusExactly) {
  Status original = Status::PermissionDenied("user 7 not in group 3");
  std::string wire = SerializeErrorResponse(original);
  EXPECT_TRUE(IsErrorResponse(wire));
  EXPECT_FALSE(IsErrorResponse(SerializeQueryRequest(QueryRequest{})));
  Status decoded;
  ASSERT_TRUE(ParseErrorResponse(wire, &decoded).ok());
  EXPECT_EQ(decoded, original);
}

TEST(MessagesTest, ErrorResponseRejectsCorruptInput) {
  std::string wire = SerializeErrorResponse(Status::NotFound("nope"));
  Status decoded;
  std::string garbage = wire;
  garbage[0] = 42;
  EXPECT_TRUE(ParseErrorResponse(garbage, &decoded).IsCorruption());
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(ParseErrorResponse(wire.substr(0, n), &decoded).ok()) << n;
  }
  // An out-of-range status code is corruption, not a mystery status.
  std::string bad_code = wire;
  bad_code[1] = 77;
  EXPECT_TRUE(ParseErrorResponse(bad_code, &decoded).IsCorruption());
}

TEST(MessagesTest, NewMessageTypesDoNotCrossParse) {
  std::string multi = SerializeMultiFetchRequest(MultiFetchRequest{1, {}});
  std::string insert_ack = SerializeInsertResponse(InsertResponse{5, 0});
  std::string del = SerializeDeleteRequest(DeleteRequest{1, 2, 3});
  EXPECT_TRUE(ParseQueryRequest(multi).status().IsCorruption());
  EXPECT_TRUE(ParseMultiFetchResponse(multi).status().IsCorruption());
  EXPECT_TRUE(ParseInsertResponse(del).status().IsCorruption());
  EXPECT_TRUE(ParseDeleteRequest(insert_ack).status().IsCorruption());
  Status decoded;
  EXPECT_TRUE(ParseErrorResponse(del, &decoded).IsCorruption());
}

// ---------------------------------------------------------------------------
// Property-style round trips: serialize -> parse -> serialize is the
// identity on the wire form, and the analytic WireSizeOf* functions agree
// with the real serialized sizes, for randomized instances of every type.
// ---------------------------------------------------------------------------

TEST(MessagesPropertyTest, RandomizedRoundTripsAndWireSizes) {
  Rng rng(20090324);
  crypto::KeyStore keys("property-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());

  auto random_query_response = [&](size_t max_elements) {
    QueryResponse r;
    r.exhausted = rng.Uniform(2) == 0;
    size_t n = rng.Uniform(static_cast<uint32_t>(max_elements + 1));
    for (size_t i = 0; i < n; ++i) {
      r.elements.push_back(MakeServed(&keys, 1, rng.NextU64()));
    }
    return r;
  };

  for (int trial = 0; trial < 50; ++trial) {
    {
      QueryRequest m{rng.NextU32(), rng.NextU32(), rng.NextU64(),
                     rng.NextU64()};
      std::string wire = SerializeQueryRequest(m);
      EXPECT_EQ(wire.size(), WireSizeOfQueryRequest(m));
      auto parsed = ParseQueryRequest(wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(SerializeQueryRequest(*parsed), wire);
    }
    {
      QueryResponse m = random_query_response(4);
      std::string wire = SerializeQueryResponse(m);
      EXPECT_EQ(wire.size(), WireSizeOfQueryResponse(m));
      auto parsed = ParseQueryResponse(wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(SerializeQueryResponse(*parsed), wire);
    }
    {
      InsertRequest m;
      m.user = rng.NextU32();
      m.list = rng.NextU32();
      m.element = MakeElement(&keys, 1, 0.5);
      m.element.handle = rng.NextU64();
      std::string wire = SerializeInsertRequest(m);
      EXPECT_EQ(wire.size(), WireSizeOfInsertRequest(m));
      auto parsed = ParseInsertRequest(wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(SerializeInsertRequest(*parsed), wire);
    }
    {
      InsertResponse m{rng.NextU64(), 0};
      std::string wire = SerializeInsertResponse(m);
      EXPECT_EQ(wire.size(), WireSizeOfInsertResponse(m));
      auto parsed = ParseInsertResponse(wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(SerializeInsertResponse(*parsed), wire);
    }
    {
      MultiFetchRequest m;
      m.user = rng.NextU32();
      size_t n = rng.Uniform(5);
      for (size_t i = 0; i < n; ++i) {
        m.fetches.push_back(
            FetchRange{rng.NextU32(), rng.NextU64(), rng.NextU64()});
      }
      std::string wire = SerializeMultiFetchRequest(m);
      EXPECT_EQ(wire.size(), WireSizeOfMultiFetchRequest(m));
      auto parsed = ParseMultiFetchRequest(wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(SerializeMultiFetchRequest(*parsed), wire);
    }
    {
      MultiFetchResponse m;
      size_t n = rng.Uniform(4);
      for (size_t i = 0; i < n; ++i) {
        m.responses.push_back(random_query_response(3));
      }
      std::string wire = SerializeMultiFetchResponse(m);
      EXPECT_EQ(wire.size(), WireSizeOfMultiFetchResponse(m));
      auto parsed = ParseMultiFetchResponse(wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(SerializeMultiFetchResponse(*parsed), wire);
    }
    {
      DeleteRequest m{rng.NextU32(), rng.NextU32(), rng.NextU64()};
      std::string wire = SerializeDeleteRequest(m);
      EXPECT_EQ(wire.size(), WireSizeOfDeleteRequest(m));
      auto parsed = ParseDeleteRequest(wire);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(SerializeDeleteRequest(*parsed), wire);
    }
    {
      DeleteResponse m;
      std::string wire = SerializeDeleteResponse(m);
      EXPECT_EQ(wire.size(), WireSizeOfDeleteResponse(m));
      EXPECT_TRUE(ParseDeleteResponse(wire).ok());
    }
    {
      StatusCode code = static_cast<StatusCode>(1 + rng.Uniform(9));
      std::string message(rng.Uniform(32), 'e');
      Status original(code, message);
      std::string wire = SerializeErrorResponse(original);
      EXPECT_EQ(wire.size(), WireSizeOfErrorResponse(original));
      Status decoded;
      ASSERT_TRUE(ParseErrorResponse(wire, &decoded).ok());
      EXPECT_EQ(decoded, original);
      EXPECT_EQ(SerializeErrorResponse(decoded), wire);
    }
  }
}

TEST(MessagesTest, ControlPlaneRoundTrips) {
  PingRequest ping{0xDEADBEEFCAFEF00Dull};
  auto ping_decoded = ParsePingRequest(SerializePingRequest(ping));
  ASSERT_TRUE(ping_decoded.ok());
  EXPECT_EQ(*ping_decoded, ping);
  EXPECT_EQ(SerializePingRequest(ping).size(), WireSizeOfPingRequest(ping));

  PingResponse pong{0xDEADBEEFCAFEF00Dull, 3, 7};
  auto pong_decoded = ParsePingResponse(SerializePingResponse(pong));
  ASSERT_TRUE(pong_decoded.ok());
  EXPECT_EQ(*pong_decoded, pong);
  EXPECT_EQ(pong_decoded->loop_id, 7u);
  EXPECT_EQ(SerializePingResponse(pong).size(), WireSizeOfPingResponse(pong));

  StatsRequest stats_request;
  auto sreq = ParseStatsRequest(SerializeStatsRequest(stats_request));
  ASSERT_TRUE(sreq.ok());

  StatsResponse stats{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, ""};
  auto stats_decoded = ParseStatsResponse(SerializeStatsResponse(stats));
  ASSERT_TRUE(stats_decoded.ok());
  EXPECT_EQ(*stats_decoded, stats);
  EXPECT_EQ(SerializeStatsResponse(stats).size(),
            WireSizeOfStatsResponse(stats));

  AclRequest acl;
  acl.op = AclRequest::Op::kGrant;
  acl.user = 42;
  acl.group = 7;
  auto acl_decoded = ParseAclRequest(SerializeAclRequest(acl));
  ASSERT_TRUE(acl_decoded.ok());
  EXPECT_EQ(*acl_decoded, acl);

  AclResponse ack;
  EXPECT_TRUE(ParseAclResponse(SerializeAclResponse(ack)).ok());
}

TEST(MessagesTest, StatsResponseV2CarriesRegistryDump) {
  StatsResponse stats{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, ""};
  stats.registry_text =
      "# TYPE zr_tcp_frames_served_total counter\n"
      "zr_tcp_frames_served_total 42\n";
  std::string wire = SerializeStatsResponse(stats);
  EXPECT_EQ(wire.size(), WireSizeOfStatsResponse(stats));
  auto decoded = ParseStatsResponse(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, stats);
  EXPECT_EQ(decoded->registry_text, stats.registry_text);
}

TEST(MessagesTest, StatsResponseEmptyDumpSerializesAsV1) {
  // The v2 tail only appears when there is a dump: a dump-free response is
  // byte-identical to the pre-versioning (v1) encoding, so old parsers that
  // stop after the ten fixed fields keep working.
  StatsResponse stats{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, ""};
  std::string wire = SerializeStatsResponse(stats);

  StatsResponse with_dump = stats;
  with_dump.registry_text = "zr_x_total 1\n";
  std::string v2_wire = SerializeStatsResponse(with_dump);

  // v1 encoding is a strict prefix of the v2 encoding of the same fields.
  ASSERT_LT(wire.size(), v2_wire.size());
  EXPECT_EQ(v2_wire.compare(0, wire.size(), wire), 0);

  // A v1 wire image (no tail at all) still parses, with an empty dump.
  auto decoded = ParseStatsResponse(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->registry_text.empty());
  EXPECT_EQ(*decoded, stats);
}

/// A StatsResponse whose counters span every varint length from 1 to 10
/// bytes, filled by field name so the fixture does not depend on layout.
StatsResponse GoldenStats() {
  StatsResponse stats;
  stats.fetch_requests = 1;
  stats.insert_requests = 300;
  stats.insert_denied = 0;
  stats.delete_requests = 127;
  stats.delete_denied = 128;
  stats.elements_served = 16384;
  stats.bytes_served = 0xFFFFFFFFull;
  stats.fetch_latency_ns = uint64_t{1} << 35;
  stats.insert_latency_ns = ~uint64_t{0};
  stats.delete_latency_ns = 42;
  return stats;
}

// Golden wire images: the exact bytes older peers parse. Any change to the
// field order, the varint coding or the versioned tail shows up here.
TEST(MessagesTest, StatsResponseV1GoldenBytes) {
  const StatsResponse stats = GoldenStats();
  const std::string wire = SerializeStatsResponse(stats);
  EXPECT_EQ(HexOf(wire),
            "0d"                    // tag
            "01ac02007f8001808001"  // fetch .. elements_served
            "ffffffff0f"            // bytes_served
            "808080808001"          // fetch_latency_ns
            "ffffffffffffffffff01"  // insert_latency_ns
            "2a");                  // delete_latency_ns
  EXPECT_EQ(WireSizeOfStatsResponse(stats), wire.size());
  auto decoded = ParseStatsResponse(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, stats);
}

TEST(MessagesTest, StatsResponseV2GoldenBytes) {
  StatsResponse stats = GoldenStats();
  stats.registry_text = "zr_tcp_frames_served_total{addr=\"127.0.0.1:1\"} 42\n";
  const std::string wire = SerializeStatsResponse(stats);
  EXPECT_EQ(HexOf(wire),
            "0d01ac02007f8001808001ffffffff0f808080808001"
            "ffffffffffffffffff012a"
            "02"  // version
            "32"  // dump length
            "7a725f7463705f6672616d65735f7365727665645f746f74616c7b6164"
            "64723d223132372e302e302e313a31227d2034320a");
  EXPECT_EQ(WireSizeOfStatsResponse(stats), wire.size());
  auto decoded = ParseStatsResponse(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, stats);
}

TEST(MessagesTest, StatsResponseRejectsUnknownVersionAndTruncatedTail) {
  StatsResponse stats;
  stats.registry_text = "zr_x_total 1\n";
  std::string wire = SerializeStatsResponse(stats);

  // Locate the version byte: it follows the ten fixed varints (all zero
  // here, one byte each) and the tag byte.
  const size_t version_at = 1 + 10;
  ASSERT_LT(version_at, wire.size());

  std::string bad_version = wire;
  bad_version[version_at] = 9;  // no such version
  EXPECT_TRUE(ParseStatsResponse(bad_version).status().IsCorruption());

  // Truncating the length-prefixed dump mid-way must fail cleanly, not
  // return a partial dump.
  std::string truncated = wire.substr(0, wire.size() - 4);
  EXPECT_FALSE(ParseStatsResponse(truncated).ok());

  // Trailing junk after the dump is rejected too.
  std::string padded = wire + "junk";
  EXPECT_FALSE(ParseStatsResponse(padded).ok());
}

TEST(MessagesTest, AclRequestRejectsUnknownOp) {
  AclRequest acl;
  acl.op = AclRequest::Op::kRevoke;
  std::string wire = SerializeAclRequest(acl);
  wire[1] = 9;  // op byte out of [1, 3]
  EXPECT_TRUE(ParseAclRequest(wire).status().IsCorruption());
}

TEST(MessagesPropertyTest, RandomGarbageNeverParsesAsNewMessages) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk;
    size_t len = rng.Uniform(48);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.NextU32() & 0xff));
    }
    // No randomly-tagged junk may parse as a differently-tagged message.
    if (!junk.empty()) {
      junk[0] = 0;  // never a valid tag
      EXPECT_FALSE(ParseInsertResponse(junk).ok());
      EXPECT_FALSE(ParseMultiFetchRequest(junk).ok());
      EXPECT_FALSE(ParseMultiFetchResponse(junk).ok());
      EXPECT_FALSE(ParseDeleteRequest(junk).ok());
      EXPECT_FALSE(ParseDeleteResponse(junk).ok());
      Status decoded;
      EXPECT_FALSE(ParseErrorResponse(junk, &decoded).ok());
    }
  }
}

}  // namespace
}  // namespace zr::net
