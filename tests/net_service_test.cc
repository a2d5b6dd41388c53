#include "net/service.h"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/keys.h"

namespace zr::net {
namespace {

// IndexService adapts zerber::IndexServer to the typed service API: every
// behavior of the raw server (acks, ACL filtering, error statuses) must
// surface through the message types unchanged.
class IndexServiceTest : public ::testing::Test {
 protected:
  IndexServiceTest()
      : keys_("service-test"),
        server_(/*num_lists=*/3, zerber::Placement::kTrsSorted, 7),
        service_(&server_) {
    EXPECT_TRUE(keys_.CreateGroup(1).ok());
    EXPECT_TRUE(keys_.CreateGroup(2).ok());
    // Fixture setup before any traffic: quiescent by construction.
    QuiescenceLock quiesced(server_.quiescence());
    EXPECT_TRUE(server_.acl().AddGroup(1).ok());
    EXPECT_TRUE(server_.acl().AddGroup(2).ok());
    EXPECT_TRUE(server_.acl().GrantMembership(kUser, 1).ok());
  }

  InsertRequest MakeInsert(uint32_t list, double trs,
                           crypto::GroupId group = 1) {
    auto element = zerber::SealPostingElement(
        zerber::PostingPayload{1, 2, 0.5}, group, trs, &keys_);
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
};

TEST_F(IndexServiceTest, InsertAcksWithServerHandle) {
  auto first = service_.Insert(MakeInsert(0, 0.9));
  auto second = service_.Insert(MakeInsert(0, 0.5));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_GT(first->handle, 0u);
  EXPECT_NE(first->handle, second->handle);
  EXPECT_EQ(server_.TotalElements(), 2u);
}

TEST_F(IndexServiceTest, InsertSurfacesServerErrors) {
  EXPECT_TRUE(service_.Insert(MakeInsert(99, 0.5)).status().IsOutOfRange());
  EXPECT_TRUE(service_.Insert(MakeInsert(0, 0.5, /*group=*/2))
                  .status()
                  .IsPermissionDenied());
}

TEST_F(IndexServiceTest, FetchReturnsWindowAndExhausted) {
  // Inserted in descending TRS, so list order is insertion order.
  std::vector<InsertRequest> inserts;
  std::vector<uint64_t> handles;
  for (double trs : {0.9, 0.7, 0.5, 0.3}) {
    inserts.push_back(MakeInsert(1, trs));
    auto ack = service_.Insert(inserts.back());
    ASSERT_TRUE(ack.ok());
    handles.push_back(ack->handle);
  }
  QueryRequest request;
  request.user = kUser;
  request.list = 1;
  request.offset = 1;
  request.count = 2;
  auto response = service_.Fetch(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->elements.size(), 2u);
  // The element at offset 1 is the TRS-0.7 insert, served without its TRS.
  EXPECT_EQ(response->elements[0].handle, handles[1]);
  EXPECT_EQ(response->elements[0].sealed, inserts[1].element.sealed);
  EXPECT_FALSE(response->exhausted);

  request.offset = 2;
  request.count = 100;
  response = service_.Fetch(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->elements.size(), 2u);
  EXPECT_TRUE(response->exhausted);
}

TEST_F(IndexServiceTest, FetchSurfacesServerErrors) {
  QueryRequest request;
  request.user = kUser;
  request.list = 42;
  request.count = 1;
  EXPECT_TRUE(service_.Fetch(request).status().IsOutOfRange());
}

TEST_F(IndexServiceTest, MultiFetchAnswersRangesInOrder) {
  ASSERT_TRUE(service_.Insert(MakeInsert(0, 0.8)).ok());
  ASSERT_TRUE(service_.Insert(MakeInsert(1, 0.6)).ok());
  ASSERT_TRUE(service_.Insert(MakeInsert(1, 0.4)).ok());

  MultiFetchRequest request;
  request.user = kUser;
  request.fetches.push_back(FetchRange{1, 0, 10});
  request.fetches.push_back(FetchRange{0, 0, 10});
  request.fetches.push_back(FetchRange{2, 0, 10});  // empty list
  auto response = service_.MultiFetch(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->responses.size(), 3u);
  EXPECT_EQ(response->responses[0].elements.size(), 2u);
  EXPECT_EQ(response->responses[1].elements.size(), 1u);
  EXPECT_TRUE(response->responses[2].elements.empty());
  EXPECT_TRUE(response->responses[2].exhausted);
}

TEST_F(IndexServiceTest, MultiFetchFailsAtomicallyOnAnyBadRange) {
  MultiFetchRequest request;
  request.user = kUser;
  request.fetches.push_back(FetchRange{0, 0, 10});
  request.fetches.push_back(FetchRange{42, 0, 10});
  EXPECT_TRUE(service_.MultiFetch(request).status().IsOutOfRange());
}

TEST_F(IndexServiceTest, DeleteRemovesByHandleAndSurfacesErrors) {
  auto inserted = service_.Insert(MakeInsert(0, 0.5));
  ASSERT_TRUE(inserted.ok());

  DeleteRequest missing;
  missing.user = kUser;
  missing.list = 0;
  missing.handle = inserted->handle + 1000;
  EXPECT_TRUE(service_.Delete(missing).status().IsNotFound());

  DeleteRequest request;
  request.user = kUser;
  request.list = 0;
  request.handle = inserted->handle;
  EXPECT_TRUE(service_.Delete(request).ok());
  EXPECT_EQ(server_.TotalElements(), 0u);
}

}  // namespace
}  // namespace zr::net
