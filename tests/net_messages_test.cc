#include "net/messages.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "crypto/keys.h"
#include "net/tcp.h"
#include "store/wal.h"
#include "util/codec.h"
#include "util/coding.h"
#include "util/random.h"
#include "zerber/persistence.h"

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

bool IsError(std::string_view wire) {
  return TagOf(wire) == MessageTag::kErrorResponse;
}

/// Calls fn(std::type_identity<M>{}) for every message type M.
template <typename Fn>
void ForEachMessage(Fn&& fn) {
  [&]<typename... Ms>(MessageList<Ms...>) {
    (fn(std::type_identity<Ms>{}), ...);
  }(Messages{});
}

TEST(MessagesTest, QueryRequestRoundTrip) {
  QueryRequest request{7, 42, 100, 20};
  auto parsed = Parse<QueryRequest>(Serialize(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, request);
}

TEST(MessagesTest, QueryRequestRejectsCorruptTag) {
  std::string wire = Serialize(QueryRequest{1, 2, 3, 4});
  wire[0] = 99;
  EXPECT_TRUE(Parse<QueryRequest>(wire).status().IsCorruption());
}

TEST(MessagesTest, QueryRequestRejectsTruncation) {
  std::string wire = Serialize(QueryRequest{1, 2, 300, 400});
  EXPECT_TRUE(Parse<QueryRequest>(wire.substr(0, wire.size() - 1))
                  .status()
                  .IsCorruption());
}

TEST(MessagesTest, QueryRequestRejectsTrailingBytes) {
  std::string wire = Serialize(QueryRequest{1, 2, 3, 4}) + "zz";
  EXPECT_TRUE(Parse<QueryRequest>(wire).status().IsCorruption());
}

TEST(MessagesTest, QueryResponseRoundTrip) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  QueryResponse response;
  response.exhausted = true;
  response.elements.push_back(MakeServed(&keys, 1, 11));
  response.elements.push_back(MakeServed(&keys, 1, 12));

  auto parsed = Parse<QueryResponse>(Serialize(response));
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

  std::string wire = Serialize(response);
  EXPECT_EQ(HexOf(wire),
            "020101"
            "01ac021a"
            "7828dcb30d5f38ef6dabf328574baf1ce7b7bfe9b8dc48abfa6c");
  EXPECT_EQ(wire.size(), WireSize(response));
  EXPECT_EQ(response.elements[0].WireSize(), stored->ServedWireSize());
  EXPECT_EQ(stored->WireSize(), stored->ServedWireSize() + 8);

  auto parsed = Parse<QueryResponse>(wire);
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
  std::string wire = codec::Encode(element);
  EXPECT_EQ(wire.size(), element.WireSize());
  wire += "next";

  std::string_view cursor = wire;
  zerber::ServedElement parsed;
  ASSERT_TRUE(codec::GetFields(&cursor, &parsed).ok());
  EXPECT_EQ(parsed.group, 4u);
  EXPECT_EQ(parsed.handle, uint64_t{1} << 40);
  EXPECT_EQ(parsed.sealed, element.sealed);
  EXPECT_EQ(cursor, "next");  // consumed exactly one element
  for (size_t n = 0; n < element.WireSize(); ++n) {
    std::string_view truncated = std::string_view(wire).substr(0, n);
    EXPECT_TRUE(codec::GetFields(&truncated, &parsed).IsCorruption()) << n;
  }
}

TEST(MessagesTest, EmptyQueryResponseRoundTrip) {
  QueryResponse response;
  auto parsed = Parse<QueryResponse>(Serialize(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->elements.empty());
  EXPECT_FALSE(parsed->exhausted);
}

TEST(MessagesTest, QueryResponseRejectsElementCountMismatch) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  QueryResponse response;
  response.elements.push_back(MakeServed(&keys, 1, 7));
  std::string wire = Serialize(response);
  // Truncate mid-element.
  EXPECT_TRUE(Parse<QueryResponse>(wire.substr(0, wire.size() - 5))
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
  EXPECT_TRUE(Parse<QueryResponse>(wire).status().IsCorruption());

  // The bound is tight: three bytes hold one empty element, five not two.
  std::string one = std::string("\x02\x00\x01", 3) + std::string(3, '\0');
  auto parsed = Parse<QueryResponse>(one);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->elements.size(), 1u);
  std::string two = std::string("\x02\x00\x02", 3) + std::string(5, '\0');
  EXPECT_TRUE(Parse<QueryResponse>(two).status().IsCorruption());
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
  EXPECT_TRUE(Parse<MultiFetchResponse>(wire).status().IsCorruption());
}

TEST(MessagesTest, InsertRequestRoundTrip) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(3).ok());
  InsertRequest request;
  request.user = 11;
  request.list = 5;
  request.element = MakeElement(&keys, 3, 0.9);

  auto parsed = Parse<InsertRequest>(Serialize(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->user, 11u);
  EXPECT_EQ(parsed->list, 5u);
  EXPECT_EQ(parsed->element.sealed, request.element.sealed);
}

TEST(MessagesTest, MessageTypesDoNotCrossParse) {
  std::string query = Serialize(QueryRequest{1, 2, 3, 4});
  EXPECT_TRUE(Parse<InsertRequest>(query).status().IsCorruption());
  EXPECT_TRUE(Parse<QueryResponse>(query).status().IsCorruption());
}

TEST(MessagesTest, RequestSizeIsSmall) {
  // Requests must be tiny compared to responses (the uplink is a modem).
  std::string wire = Serialize(QueryRequest{1, 100, 1000, 50});
  EXPECT_LT(wire.size(), 16u);
}

// ---------------------------------------------------------------------------
// New message types: InsertResponse, MultiFetch, Delete, error statuses.
// ---------------------------------------------------------------------------

TEST(MessagesTest, InsertResponseRoundTrip) {
  InsertResponse response;
  response.handle = 0xDEADBEEFu;
  auto parsed = Parse<InsertResponse>(Serialize(response));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, response);
}

TEST(MessagesTest, InsertResponseRejectsCorruptInput) {
  std::string wire = Serialize(InsertResponse{12345, 0});
  // Garbage prefix.
  std::string garbage = wire;
  garbage[0] = 99;
  EXPECT_TRUE(Parse<InsertResponse>(garbage).status().IsCorruption());
  // Truncation at every length.
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(Parse<InsertResponse>(wire.substr(0, n)).ok()) << n;
  }
  // Trailing bytes.
  EXPECT_TRUE(Parse<InsertResponse>(wire + "x").status().IsCorruption());
}

TEST(MessagesTest, InsertResponseHandleTakesAtMost64Bits) {
  // Tag 04, then the handle as a varint: nine ff bytes carry bits 0..62,
  // and the tenth byte may carry bit 63 alone.
  const std::string nine(9, static_cast<char>(0xff));
  auto max = Parse<InsertResponse>("\x04" + nine + "\x01");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->handle, UINT64_MAX);
  EXPECT_TRUE(
      Parse<InsertResponse>("\x04" + nine + "\x7f").status().IsCorruption());
}

// Every message has one encoding: a padded varint and a bool byte other
// than 0 or 1 are Corruption, not another spelling of the same message.
TEST(MessagesTest, NonCanonicalEncodingsAreCorruption) {
  auto one = Parse<InsertResponse>(std::string("\x04\x01", 2));
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_EQ(one->handle, 1u);
  EXPECT_TRUE(Parse<InsertResponse>(std::string("\x04\x81\x00", 3))
                  .status()
                  .IsCorruption());

  // QueryResponse: tag 02, exhausted, no elements.
  auto exhausted = Parse<QueryResponse>(std::string("\x02\x01\x00", 3));
  ASSERT_TRUE(exhausted.ok()) << exhausted.status();
  EXPECT_TRUE(exhausted->exhausted);
  EXPECT_TRUE(Parse<QueryResponse>(std::string("\x02\x02\x00", 3))
                  .status()
                  .IsCorruption());
}

TEST(MessagesTest, MultiFetchRequestRoundTrip) {
  MultiFetchRequest request;
  request.user = 9;
  request.fetches.push_back(FetchRange{3, 0, 10});
  request.fetches.push_back(FetchRange{3, 100, 1 << 20});
  request.fetches.push_back(FetchRange{77, 5, 0});
  auto parsed = Parse<MultiFetchRequest>(Serialize(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, request);
}

TEST(MessagesTest, EmptyMultiFetchRequestRoundTrip) {
  MultiFetchRequest request;
  request.user = 1;
  auto parsed = Parse<MultiFetchRequest>(Serialize(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->fetches.empty());
}

TEST(MessagesTest, MultiFetchRequestRejectsCorruptInput) {
  MultiFetchRequest request;
  request.user = 2;
  request.fetches.push_back(FetchRange{1, 2, 3});
  std::string wire = Serialize(request);
  std::string garbage = wire;
  garbage[0] = 99;
  EXPECT_TRUE(Parse<MultiFetchRequest>(garbage).status().IsCorruption());
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(Parse<MultiFetchRequest>(wire.substr(0, n)).ok()) << n;
  }
  EXPECT_TRUE(Parse<MultiFetchRequest>(wire + "z").status().IsCorruption());
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
  EXPECT_TRUE(Parse<MultiFetchRequest>(wire).status().IsCorruption());
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

  std::string wire = Serialize(response);
  auto parsed = Parse<MultiFetchResponse>(wire);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->responses.size(), 2u);
  ASSERT_EQ(parsed->responses[0].elements.size(), 2u);
  EXPECT_EQ(parsed->responses[0].elements[0].sealed, a.elements[0].sealed);
  EXPECT_FALSE(parsed->responses[0].exhausted);
  EXPECT_TRUE(parsed->responses[1].exhausted);
  EXPECT_TRUE(parsed->responses[1].elements.empty());
  // The parser records each nested response's own wire footprint.
  EXPECT_EQ(parsed->responses[0].wire_size, WireSize(a));
  EXPECT_EQ(parsed->responses[1].wire_size, WireSize(b));
}

TEST(MessagesTest, MultiFetchResponseRejectsCorruptInput) {
  crypto::KeyStore keys("msg-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  MultiFetchResponse response;
  QueryResponse sub;
  sub.elements.push_back(MakeServed(&keys, 1, 3));
  response.responses.push_back(sub);
  std::string wire = Serialize(response);
  std::string garbage = wire;
  garbage[0] = 99;
  EXPECT_TRUE(Parse<MultiFetchResponse>(garbage).status().IsCorruption());
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(Parse<MultiFetchResponse>(wire.substr(0, n)).ok()) << n;
  }
  EXPECT_TRUE(Parse<MultiFetchResponse>(wire + "q").status().IsCorruption());
}

TEST(MessagesTest, DeleteRequestRoundTrip) {
  DeleteRequest request{11, 7, 123456789};
  auto parsed = Parse<DeleteRequest>(Serialize(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, request);
}

TEST(MessagesTest, DeleteResponseRoundTrip) {
  std::string wire = Serialize(DeleteResponse{});
  EXPECT_TRUE(Parse<DeleteResponse>(wire).ok());
  EXPECT_TRUE(Parse<DeleteResponse>(wire + "x").status().IsCorruption());
  EXPECT_FALSE(Parse<DeleteResponse>("").ok());
}

TEST(MessagesTest, ErrorResponseCarriesStatusExactly) {
  Status original = Status::PermissionDenied("user 7 not in group 3");
  std::string wire = Serialize(ErrorResponse::Of(original));
  EXPECT_TRUE(IsError(wire));
  EXPECT_FALSE(IsError(Serialize(QueryRequest{})));
  auto decoded = Parse<ErrorResponse>(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status(), original);
}

TEST(MessagesTest, ErrorResponseRejectsCorruptInput) {
  std::string wire = Serialize(ErrorResponse::Of(Status::NotFound("nope")));
  std::string garbage = wire;
  garbage[0] = 42;
  EXPECT_TRUE(Parse<ErrorResponse>(garbage).status().IsCorruption());
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(Parse<ErrorResponse>(wire.substr(0, n)).ok()) << n;
  }
  // An out-of-range status code is corruption, not a mystery status.
  std::string bad_code = wire;
  bad_code[1] = 77;
  EXPECT_TRUE(Parse<ErrorResponse>(bad_code).status().IsCorruption());
}

TEST(MessagesTest, NewMessageTypesDoNotCrossParse) {
  std::string multi = Serialize(MultiFetchRequest{1, {}});
  std::string insert_ack = Serialize(InsertResponse{5, 0});
  std::string del = Serialize(DeleteRequest{1, 2, 3});
  EXPECT_TRUE(Parse<QueryRequest>(multi).status().IsCorruption());
  EXPECT_TRUE(Parse<MultiFetchResponse>(multi).status().IsCorruption());
  EXPECT_TRUE(Parse<InsertResponse>(del).status().IsCorruption());
  EXPECT_TRUE(Parse<DeleteRequest>(insert_ack).status().IsCorruption());
  EXPECT_TRUE(Parse<ErrorResponse>(del).status().IsCorruption());
}

TEST(MessagesTest, ControlPlaneRoundTrips) {
  PingRequest ping{0xDEADBEEFCAFEF00Dull};
  auto ping_decoded = Parse<PingRequest>(Serialize(ping));
  ASSERT_TRUE(ping_decoded.ok());
  EXPECT_EQ(*ping_decoded, ping);
  EXPECT_EQ(Serialize(ping).size(), WireSize(ping));

  PingResponse pong{0xDEADBEEFCAFEF00Dull, 3, 7};
  auto pong_decoded = Parse<PingResponse>(Serialize(pong));
  ASSERT_TRUE(pong_decoded.ok());
  EXPECT_EQ(*pong_decoded, pong);
  EXPECT_EQ(pong_decoded->loop_id, 7u);
  EXPECT_EQ(Serialize(pong).size(), WireSize(pong));

  StatsRequest stats_request;
  auto sreq = Parse<StatsRequest>(Serialize(stats_request));
  ASSERT_TRUE(sreq.ok());

  StatsResponse stats{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, ""};
  auto stats_decoded = Parse<StatsResponse>(Serialize(stats));
  ASSERT_TRUE(stats_decoded.ok());
  EXPECT_EQ(*stats_decoded, stats);
  EXPECT_EQ(Serialize(stats).size(), WireSize(stats));

  AclRequest acl;
  acl.op = AclRequest::Op::kGrant;
  acl.user = 42;
  acl.group = 7;
  auto acl_decoded = Parse<AclRequest>(Serialize(acl));
  ASSERT_TRUE(acl_decoded.ok());
  EXPECT_EQ(*acl_decoded, acl);

  AclResponse ack;
  EXPECT_TRUE(Parse<AclResponse>(Serialize(ack)).ok());
}

TEST(MessagesTest, StatsResponseV2CarriesRegistryDump) {
  StatsResponse stats{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, ""};
  stats.registry_text =
      "# TYPE zr_tcp_frames_served_total counter\n"
      "zr_tcp_frames_served_total 42\n";
  std::string wire = Serialize(stats);
  EXPECT_EQ(wire.size(), WireSize(stats));
  auto decoded = Parse<StatsResponse>(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, stats);
  EXPECT_EQ(decoded->registry_text, stats.registry_text);
}

TEST(MessagesTest, StatsResponseEmptyDumpSerializesAsV1) {
  // The v2 tail only appears when there is a dump: a dump-free response is
  // byte-identical to the pre-versioning (v1) encoding, so old parsers that
  // stop after the ten fixed fields keep working.
  StatsResponse stats{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, ""};
  std::string wire = Serialize(stats);

  StatsResponse with_dump = stats;
  with_dump.registry_text = "zr_x_total 1\n";
  std::string v2_wire = Serialize(with_dump);

  // v1 encoding is a strict prefix of the v2 encoding of the same fields.
  ASSERT_LT(wire.size(), v2_wire.size());
  EXPECT_EQ(v2_wire.compare(0, wire.size(), wire), 0);

  // A v1 wire image (no tail at all) still parses, with an empty dump.
  auto decoded = Parse<StatsResponse>(wire);
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
  const std::string wire = Serialize(stats);
  EXPECT_EQ(HexOf(wire),
            "0d"                    // tag
            "01ac02007f8001808001"  // fetch .. elements_served
            "ffffffff0f"            // bytes_served
            "808080808001"          // fetch_latency_ns
            "ffffffffffffffffff01"  // insert_latency_ns
            "2a");                  // delete_latency_ns
  EXPECT_EQ(WireSize(stats), wire.size());
  auto decoded = Parse<StatsResponse>(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, stats);
}

TEST(MessagesTest, StatsResponseV2GoldenBytes) {
  StatsResponse stats = GoldenStats();
  stats.registry_text = "zr_tcp_frames_served_total{addr=\"127.0.0.1:1\"} 42\n";
  const std::string wire = Serialize(stats);
  EXPECT_EQ(HexOf(wire),
            "0d01ac02007f8001808001ffffffff0f808080808001"
            "ffffffffffffffffff012a"
            "02"  // version
            "32"  // dump length
            "7a725f7463705f6672616d65735f7365727665645f746f74616c7b6164"
            "64723d223132372e302e302e313a31227d2034320a");
  EXPECT_EQ(WireSize(stats), wire.size());
  auto decoded = Parse<StatsResponse>(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, stats);
}

TEST(MessagesTest, StatsResponseRejectsUnknownVersionAndTruncatedTail) {
  StatsResponse stats;
  stats.registry_text = "zr_x_total 1\n";
  std::string wire = Serialize(stats);

  // Locate the version byte: it follows the ten fixed varints (all zero
  // here, one byte each) and the tag byte.
  const size_t version_at = 1 + 10;
  ASSERT_LT(version_at, wire.size());

  std::string bad_version = wire;
  bad_version[version_at] = 9;  // no such version
  EXPECT_TRUE(Parse<StatsResponse>(bad_version).status().IsCorruption());

  // Truncating the length-prefixed dump mid-way must fail cleanly, not
  // return a partial dump.
  std::string truncated = wire.substr(0, wire.size() - 4);
  EXPECT_FALSE(Parse<StatsResponse>(truncated).ok());

  // Trailing junk after the dump is rejected too.
  std::string padded = wire + "junk";
  EXPECT_FALSE(Parse<StatsResponse>(padded).ok());
}

TEST(MessagesTest, AclRequestRejectsUnknownOp) {
  AclRequest acl;
  acl.op = AclRequest::Op::kRevoke;
  std::string wire = Serialize(acl);
  wire[1] = 9;  // op byte out of [1, 3]
  EXPECT_TRUE(Parse<AclRequest>(wire).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Goldens: the exact wire image of every message type. Each u64 field
// takes a value of a different varint length, so together they span 1 to
// 10 bytes; the sealed bytes are the first seal under KeyStore "seed"
// (deterministic, see ServedElementIsByteIdentical).
// ---------------------------------------------------------------------------

// "1a" + these 26 bytes: the length-prefixed sealed bytes of every golden
// element.
constexpr std::string_view kGoldenSealedHex =
    "1a7828dcb30d5f38ef6dabf328574baf1ce7b7bfe9b8dc48abfa6c";

zerber::EncryptedPostingElement GoldenStored(uint64_t handle) {
  crypto::KeyStore keys("seed");
  EXPECT_TRUE(keys.CreateGroup(1).ok());
  zerber::EncryptedPostingElement e = MakeElement(&keys, 1, 0.5);
  e.handle = handle;
  return e;
}

zerber::ServedElement GoldenServed(uint64_t handle) {
  return zerber::ServeElement(GoldenStored(handle));
}

/// The golden instances of message type M, in the order of its golden
/// test's hex strings.
template <typename M>
std::vector<M> Goldens();

template <>
std::vector<QueryRequest> Goldens() {
  return {QueryRequest{127, 16383, uint64_t{1} << 35, ~uint64_t{0}}};
}

template <>
std::vector<QueryResponse> Goldens() {
  QueryResponse response;
  response.exhausted = true;
  response.elements.push_back(GoldenServed(300));
  response.elements.push_back(GoldenServed(uint64_t{1} << 56));
  return {response};
}

template <>
std::vector<InsertRequest> Goldens() {
  return {InsertRequest{uint32_t{1} << 31, 2, GoldenStored(uint64_t{1} << 21)}};
}

template <>
std::vector<InsertResponse> Goldens() {
  return {InsertResponse{uint64_t{1} << 28, 0}};
}

template <>
std::vector<MultiFetchRequest> Goldens() {
  return {MultiFetchRequest{
      9, {FetchRange{3, 0, uint64_t{1} << 14},
          FetchRange{0xFFFFFFFFu, uint64_t{1} << 42, uint64_t{1} << 49}}}};
}

template <>
std::vector<MultiFetchResponse> Goldens() {
  MultiFetchResponse response;
  QueryResponse one;
  one.elements.push_back(GoldenServed(1));
  QueryResponse empty;
  empty.exhausted = true;
  response.responses = {one, empty};
  return {response};
}

template <>
std::vector<DeleteRequest> Goldens() {
  return {DeleteRequest{11, 7, uint64_t{1} << 63}};
}

template <>
std::vector<DeleteResponse> Goldens() {
  return {DeleteResponse{}};
}

template <>
std::vector<ErrorResponse> Goldens() {
  return {ErrorResponse::Of(Status::PermissionDenied("user 7 not in group 3"))};
}

template <>
std::vector<PingRequest> Goldens() {
  return {PingRequest{uint64_t{1} << 49}};
}

template <>
std::vector<PingResponse> Goldens() {
  return {PingResponse{~uint64_t{0}, 3, 128}};
}

template <>
std::vector<StatsRequest> Goldens() {
  return {StatsRequest{}};
}

template <>
std::vector<StatsResponse> Goldens() {
  StatsResponse v2 = GoldenStats();
  v2.registry_text = "zr_tcp_frames_served_total{addr=\"127.0.0.1:1\"} 42\n";
  return {GoldenStats(), v2};
}

template <>
std::vector<AclRequest> Goldens() {
  return {AclRequest{AclRequest::Op::kAddGroup, 0, 9},
          AclRequest{AclRequest::Op::kGrant, 300, 0xFFFFFFFFu},
          AclRequest{AclRequest::Op::kRevoke, uint32_t{1} << 20, 128}};
}

template <>
std::vector<AclResponse> Goldens() {
  return {AclResponse{}};
}

// The goldens of every other format's record types: posting elements and
// the sealed payload, WAL records, the snapshot body and frame extensions.

template <>
std::vector<zerber::EncryptedPostingElement> Goldens() {
  return {GoldenStored(300)};
}

template <>
std::vector<zerber::ServedElement> Goldens() {
  return {GoldenServed(uint64_t{1} << 56)};
}

template <>
std::vector<zerber::PostingPayload> Goldens() {
  return {zerber::PostingPayload{1, 2, 0.5},
          zerber::PostingPayload{0xFFFFFFFFu, 16384, 1.0 / 3}};
}

template <>
std::vector<store::WalRecord> Goldens() {
  using Type = store::WalRecord::Type;
  std::vector<store::WalRecord> records(5);
  records[0].type = Type::kInsert;
  records[0].list = 300;
  records[0].element = GoldenStored(42);
  records[1].type = Type::kDelete;
  records[1].list = 7;
  records[1].handle = uint64_t{1} << 35;
  records[2].type = Type::kAddGroup;
  records[2].group = 0xFFFFFFFFu;
  records[3].type = Type::kGrantMembership;
  records[3].user = 11;
  records[3].group = 16384;
  records[4].type = Type::kRevokeMembership;
  records[4].user = uint32_t{1} << 21;
  records[4].group = 5;
  return records;
}

template <>
std::vector<zerber::SnapshotBody> Goldens() {
  zerber::SnapshotBody body;
  body.placement = zerber::Placement::kTrsSorted;
  body.lists = {{GoldenStored(1), GoldenStored(300)}, {}};
  body.groups = {{1, {7, 300}}, {0xFFFFFFFFu, {}}};
  return {body};
}

template <>
std::vector<FrameExtension> Goldens() {
  FrameExtension trace;
  trace.type = FrameExtension::Type::kTraceContext;
  trace.trace = obs::TraceContext{0x0102030405060708, 0xA1};
  FrameExtension report;
  report.type = FrameExtension::Type::kSpanReport;
  report.spans = {{0, obs::Stage::kShardServe, 300, 7},
                  {0, obs::Stage::kWalAppend, uint64_t{1} << 20, 0}};
  return {trace, report};
}

/// Checks the goldens of M against their hex images: the exact bytes, the
/// analytic wire size, and a parse that re-encodes to the same bytes.
template <typename M>
void ExpectGoldens(const std::vector<std::string>& hexes) {
  const std::vector<M> goldens = Goldens<M>();
  ASSERT_EQ(goldens.size(), hexes.size());
  for (size_t i = 0; i < goldens.size(); ++i) {
    const std::string wire = Serialize(goldens[i]);
    EXPECT_EQ(HexOf(wire), hexes[i]) << i;
    EXPECT_EQ(WireSize(goldens[i]), wire.size()) << i;
    auto parsed = Parse<M>(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(Serialize(*parsed), wire) << i;
  }
}

std::string Hex(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) out += part;
  return out;
}

TEST(MessagesGoldenTest, QueryRequest) {
  ExpectGoldens<QueryRequest>({Hex({"01",                     // tag
                                    "7f",                     // user
                                    "ff7f",                   // list
                                    "808080808001",           // offset
                                    "ffffffffffffffffff01"})});  // count
}

TEST(MessagesGoldenTest, QueryResponse) {
  ExpectGoldens<QueryResponse>({Hex({"02",  // tag
                                     "01",  // exhausted
                                     "02",  // element count
                                     "01", "ac02", kGoldenSealedHex,
                                     "01", "808080808080808001",
                                     kGoldenSealedHex})});
}

TEST(MessagesGoldenTest, InsertRequest) {
  ExpectGoldens<InsertRequest>({Hex({"03",          // tag
                                     "8080808008",  // user
                                     "02",          // list
                                     "01",          // group
                                     "80808001",    // handle
                                     "000000000000e03f",  // trs
                                     kGoldenSealedHex})});
}

TEST(MessagesGoldenTest, InsertResponse) {
  ExpectGoldens<InsertResponse>({"048080808001"});
}

TEST(MessagesGoldenTest, MultiFetchRequest) {
  ExpectGoldens<MultiFetchRequest>({Hex({"05",  // tag
                                         "09",  // user
                                         "02",  // range count
                                         "03", "00", "808001",
                                         "ffffffff0f", "80808080808001",
                                         "8080808080808001"})});
}

TEST(MessagesGoldenTest, MultiFetchResponse) {
  ExpectGoldens<MultiFetchResponse>({Hex({"06",  // tag
                                          "02",  // response count
                                          "20",  // first response's length
                                          "020001", "0101", kGoldenSealedHex,
                                          "03",  // second response's length
                                          "020100"})});
}

TEST(MessagesGoldenTest, DeleteRequest) {
  ExpectGoldens<DeleteRequest>({"070b0780808080808080808001"});
}

TEST(MessagesGoldenTest, DeleteResponse) {
  ExpectGoldens<DeleteResponse>({"08"});
}

TEST(MessagesGoldenTest, ErrorResponse) {
  ExpectGoldens<ErrorResponse>(
      {Hex({"09",  // tag
            "04",  // PermissionDenied
            "15",  // message length: "user 7 not in group 3"
            "757365722037206e6f7420696e2067726f75702033"})});
}

TEST(MessagesGoldenTest, PingRequest) {
  ExpectGoldens<PingRequest>({"0a8080808080808001"});
}

TEST(MessagesGoldenTest, PingResponse) {
  ExpectGoldens<PingResponse>({"0bffffffffffffffffff01038001"});
}

TEST(MessagesGoldenTest, StatsRequest) {
  ExpectGoldens<StatsRequest>({"0c"});
}

TEST(MessagesGoldenTest, AclRequest) {
  ExpectGoldens<AclRequest>({"0e010009", "0e02ac02ffffffff0f",
                             "0e038080408001"});
}

TEST(MessagesGoldenTest, AclResponse) {
  ExpectGoldens<AclResponse>({"0f"});
}

// ---------------------------------------------------------------------------
// Property tests over the message type list: every type gets randomized
// round trips, random-garbage rejection and seeded mutation of its goldens,
// with no per-type code here.
// ---------------------------------------------------------------------------

/// Fills every field of a message with random values, walking the same
/// field list the codec walks (a field type it does not know fails to
/// compile, so new field types cannot slip past these tests).
class RandomFields {
 public:
  RandomFields(Rng* rng, crypto::KeyStore* keys) : rng_(rng), keys_(keys) {}

  void operator()(uint32_t& x) { x = rng_->NextU32(); }
  void operator()(uint64_t& x) { x = rng_->NextU64(); }
  void operator()(bool& x) { x = rng_->Uniform(2) == 0; }
  void operator()(std::string& s) { s.assign(rng_->Uniform(32), 'e'); }
  void operator()(StatusCode& code) {
    code = static_cast<StatusCode>(1 + rng_->Uniform(10));
  }
  void operator()(AclRequest::Op& op) {
    op = static_cast<AclRequest::Op>(1 + rng_->Uniform(3));
  }
  void operator()(zerber::ServedElement& e) {
    e = MakeServed(keys_, 1, rng_->NextU64());
  }
  void operator()(zerber::EncryptedPostingElement& e) {
    e = MakeElement(keys_, 1, 0.5);
    e.handle = rng_->NextU64();
  }
  void operator()(VersionedTail<std::string> tail) {
    if (rng_->Uniform(2) == 0) (*this)(tail.text);
  }
  template <typename T>
  void operator()(std::vector<T>& xs) {
    xs.resize(rng_->Uniform(5));
    for (T& x : xs) (*this)(x);
  }
  template <codec::WireRecord T>
  void operator()(T& record) {
    T::Fields(record, *this);
  }

 private:
  Rng* rng_;
  crypto::KeyStore* keys_;
};

TEST(MessagesPropertyTest, RandomizedRoundTripsAndWireSizes) {
  Rng rng(20090324);
  crypto::KeyStore keys("property-test");
  ASSERT_TRUE(keys.CreateGroup(1).ok());
  RandomFields random(&rng, &keys);
  ForEachMessage([&]<typename M>(std::type_identity<M>) {
    for (int trial = 0; trial < 50; ++trial) {
      M m;
      random(m);
      std::string wire = Serialize(m);
      EXPECT_EQ(wire.size(), WireSize(m));
      auto parsed = Parse<M>(wire);
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_EQ(Serialize(*parsed), wire);
      if constexpr (std::equality_comparable<M>) {
        EXPECT_EQ(*parsed, m);
      }
    }
  });
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
      ForEachMessage([&]<typename M>(std::type_identity<M>) {
        EXPECT_FALSE(Parse<M>(junk).ok());
      });
    }
  }
}

/// `wire` with the varint starting at `at` (up to 10 bytes) replaced by
/// the encoding of 2^k: a count or length prefix raised, where one starts.
std::string RaiseVarint(std::string wire, size_t at, int k) {
  size_t end = at;
  while (end + 1 < wire.size() && end - at < 9 &&
         (static_cast<uint8_t>(wire[end]) & 0x80) != 0) {
    ++end;
  }
  std::string raised;
  PutVarint64(&raised, uint64_t{1} << k);
  return wire.replace(at, end + 1 - at, raised);
}

/// Deterministic mutants of `wire`: each round, at every byte offset, one
/// bit flip, one truncation, one inserted byte and one raised varint.
std::vector<std::string> Mutants(const std::string& wire, Rng* rng) {
  constexpr int kRounds = 8;
  std::vector<std::string> out;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t at = 0; at < wire.size(); ++at) {
      std::string flipped = wire;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << rng->Uniform(8)));
      out.push_back(std::move(flipped));
      out.push_back(wire.substr(0, at));
      std::string inserted = wire;
      inserted.insert(at, 1, static_cast<char>(rng->NextU32()));
      out.push_back(std::move(inserted));
      out.push_back(
          RaiseVarint(wire, at, static_cast<int>(rng->Uniform(64))));
    }
  }
  return out;
}

/// A format's encoder, parser and size: a message with its tag
/// (Serialize, Parse, WireSize), any other record untagged (codec::Encode,
/// codec::Decode, codec::FieldsSize).
template <typename T>
std::string EncodeOf(const T& x) {
  if constexpr (WireMessage<T>) {
    return Serialize(x);
  } else {
    return codec::Encode(x);
  }
}

template <typename T>
StatusOr<T> DecodeOf(std::string_view bytes) {
  if constexpr (WireMessage<T>) {
    return Parse<T>(bytes);
  } else {
    return codec::Decode<T>(bytes);
  }
}

template <typename T>
size_t SizeOf(const T& x) {
  if constexpr (WireMessage<T>) {
    return WireSize(x);
  } else {
    return codec::FieldsSize(x);
  }
}

/// Calls fn(std::type_identity<T>{}) for every record type of every
/// format: the messages, then the records the other formats are made of.
template <typename Fn>
void ForEachFormat(Fn&& fn) {
  ForEachMessage(fn);
  [&]<typename... Ts>(std::type_identity<Ts>... types) {
    (fn(types), ...);
  }(std::type_identity<zerber::EncryptedPostingElement>{},
    std::type_identity<zerber::ServedElement>{},
    std::type_identity<zerber::PostingPayload>{},
    std::type_identity<store::WalRecord>{},
    std::type_identity<zerber::SnapshotBody>{},
    std::type_identity<FrameExtension>{});
}

// The tier-1 hostile-input driver for every parser of every format: seeded
// mutations of every golden (each of which first round-trips). A parse
// either accepts or fails with Corruption (never a crash, and never an
// allocation sized by a hostile count: std::bad_alloc would escape and fail
// the test), and an accepted mutant re-encodes, at its analytic size, to
// exactly its own bytes: each record has one encoding.
TEST(MessagesPropertyTest, SeededMutationsOfEveryGoldenParseCleanly) {
  Rng rng(19);
  size_t types = 0;
  size_t mutants = 0;
  size_t accepted = 0;
  ForEachFormat([&]<typename T>(std::type_identity<T>) {
    ++types;
    for (const T& golden : Goldens<T>()) {
      const std::string bytes = EncodeOf(golden);
      ASSERT_EQ(SizeOf(golden), bytes.size());
      auto decoded = DecodeOf<T>(bytes);
      ASSERT_TRUE(decoded.ok()) << decoded.status() << " on " << HexOf(bytes);
      ASSERT_EQ(EncodeOf(*decoded), bytes);
      for (const std::string& mutant : Mutants(bytes, &rng)) {
        ++mutants;
        StatusOr<T> parsed = DecodeOf<T>(mutant);
        if (!parsed.ok()) {
          EXPECT_TRUE(parsed.status().IsCorruption())
              << parsed.status() << " on " << HexOf(mutant);
          continue;
        }
        ++accepted;
        EXPECT_EQ(SizeOf(*parsed), mutant.size()) << HexOf(mutant);
        EXPECT_EQ(HexOf(EncodeOf(*parsed)), HexOf(mutant));
      }
    }
  });
  EXPECT_EQ(types, 21u);
  EXPECT_GT(mutants, 10000u);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, mutants);
}

}  // namespace
}  // namespace zr::net
