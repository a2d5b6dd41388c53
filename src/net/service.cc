#include "net/service.h"

#include "util/mutex.h"

namespace zr::net {

StatusOr<InsertResponse> IndexService::Insert(const InsertRequest& request) {
  ZR_ASSIGN_OR_RETURN(uint64_t handle,
                      server_->Insert(request.user, request.list,
                                      request.element));
  InsertResponse response;
  response.handle = handle;
  return response;
}

StatusOr<QueryResponse> IndexService::Fetch(const QueryRequest& request) {
  ZR_ASSIGN_OR_RETURN(
      zerber::FetchResult fetched,
      server_->Fetch(request.user, request.list,
                     static_cast<size_t>(request.offset),
                     static_cast<size_t>(request.count)));
  // The ZerberService boundary: elements leave the server without the TRS
  // it sorted them by.
  QueryResponse response;
  response.elements.reserve(fetched.elements.size());
  for (zerber::EncryptedPostingElement& e : fetched.elements) {
    response.elements.push_back(zerber::ServeElement(std::move(e)));
  }
  response.exhausted = fetched.exhausted;
  return response;
}

StatusOr<MultiFetchResponse> IndexService::MultiFetch(
    const MultiFetchRequest& request) {
  MultiFetchResponse response;
  response.responses.reserve(request.fetches.size());
  for (const FetchRange& f : request.fetches) {
    QueryRequest sub;
    sub.user = request.user;
    sub.list = f.list;
    sub.offset = f.offset;
    sub.count = f.count;
    ZR_ASSIGN_OR_RETURN(QueryResponse r, Fetch(sub));
    response.responses.push_back(std::move(r));
  }
  return response;
}

StatusOr<DeleteResponse> IndexService::Delete(const DeleteRequest& request) {
  ZR_RETURN_IF_ERROR(
      server_->Delete(request.user, request.list, request.handle));
  return DeleteResponse{};
}

Status IndexService::Acl(const AclRequest& request) {
  // Quiescent-only by contract (see ShardService::Acl); claim the server's
  // capability on the caller's behalf.
  zerber::IndexServer& server = *server_;
  QuiescenceLock quiesced(server.quiescence());
  switch (request.op) {
    case AclRequest::Op::kAddGroup:
      return server.acl().AddGroup(request.group);
    case AclRequest::Op::kGrant:
      return server.acl().GrantMembership(request.user, request.group);
    case AclRequest::Op::kRevoke:
      return server.acl().RevokeMembership(request.user, request.group);
  }
  return Status::InvalidArgument("unknown ACL op");
}

StatusOr<StatsResponse> IndexService::Stats() {
  return StatsResponse{server_->stats(), /*registry_text=*/""};
}

}  // namespace zr::net
