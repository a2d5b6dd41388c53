#include "net/messages.h"

#include <cassert>

#include "util/coding.h"

namespace zr::net {

namespace {
// Message type tags (MessageTag in the header) guard against cross-parsing.
constexpr uint8_t kTagQueryRequest =
    static_cast<uint8_t>(MessageTag::kQueryRequest);
constexpr uint8_t kTagQueryResponse =
    static_cast<uint8_t>(MessageTag::kQueryResponse);
constexpr uint8_t kTagInsertRequest =
    static_cast<uint8_t>(MessageTag::kInsertRequest);
constexpr uint8_t kTagInsertResponse =
    static_cast<uint8_t>(MessageTag::kInsertResponse);
constexpr uint8_t kTagMultiFetchRequest =
    static_cast<uint8_t>(MessageTag::kMultiFetchRequest);
constexpr uint8_t kTagMultiFetchResponse =
    static_cast<uint8_t>(MessageTag::kMultiFetchResponse);
constexpr uint8_t kTagDeleteRequest =
    static_cast<uint8_t>(MessageTag::kDeleteRequest);
constexpr uint8_t kTagDeleteResponse =
    static_cast<uint8_t>(MessageTag::kDeleteResponse);
constexpr uint8_t kTagErrorResponse =
    static_cast<uint8_t>(MessageTag::kErrorResponse);
constexpr uint8_t kTagPingRequest =
    static_cast<uint8_t>(MessageTag::kPingRequest);
constexpr uint8_t kTagPingResponse =
    static_cast<uint8_t>(MessageTag::kPingResponse);
constexpr uint8_t kTagStatsRequest =
    static_cast<uint8_t>(MessageTag::kStatsRequest);
constexpr uint8_t kTagStatsResponse =
    static_cast<uint8_t>(MessageTag::kStatsResponse);

// StatsResponse tail version marker (the registry-dump extension). Any
// other value after the fixed fields is rejected as corruption.
constexpr uint8_t kStatsResponseV2 = 2;
constexpr uint8_t kTagAclRequest =
    static_cast<uint8_t>(MessageTag::kAclRequest);
constexpr uint8_t kTagAclResponse =
    static_cast<uint8_t>(MessageTag::kAclResponse);

Status ExpectTag(ByteReader* reader, uint8_t expected) {
  std::string_view tag;
  ZR_RETURN_IF_ERROR(reader->GetRaw(1, &tag));
  if (static_cast<uint8_t>(tag[0]) != expected) {
    return Status::Corruption("unexpected message tag");
  }
  return Status::OK();
}
}  // namespace

MessageTag TagOf(std::string_view message) {
  if (message.empty()) return MessageTag::kInvalid;
  uint8_t tag = static_cast<uint8_t>(message[0]);
  if (tag == 0 || tag > static_cast<uint8_t>(MessageTag::kAclResponse)) {
    return MessageTag::kInvalid;
  }
  return static_cast<MessageTag>(tag);
}

std::string SerializeQueryRequest(const QueryRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kTagQueryRequest));
  PutVarint32(&out, request.user);
  PutVarint32(&out, request.list);
  PutVarint64(&out, request.offset);
  PutVarint64(&out, request.count);
  return out;
}

StatusOr<QueryRequest> ParseQueryRequest(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagQueryRequest));
  QueryRequest request;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.user));
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.list));
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&request.offset));
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&request.count));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return request;
}

std::string SerializeQueryResponse(const QueryResponse& response) {
  std::string out;
  out.push_back(static_cast<char>(kTagQueryResponse));
  out.push_back(response.exhausted ? 1 : 0);
  PutVarint64(&out, response.elements.size());
  for (const zerber::ServedElement& e : response.elements) {
    zerber::AppendServedElement(&out, e);
  }
  return out;
}

StatusOr<QueryResponse> ParseQueryResponse(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagQueryResponse));
  std::string_view flag;
  ZR_RETURN_IF_ERROR(reader.GetRaw(1, &flag));
  QueryResponse response;
  response.exhausted = flag[0] != 0;
  uint64_t n;
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&n));
  // A count beyond what the remaining input could hold is corrupt, not a
  // reason to allocate.
  if (n > reader.remaining() / zerber::kMinServedElementBytes) {
    return Status::Corruption("element count exceeds message size");
  }
  std::string_view rest;
  ZR_RETURN_IF_ERROR(reader.GetRaw(reader.remaining(), &rest));
  response.elements.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    ZR_ASSIGN_OR_RETURN(zerber::ServedElement element,
                        zerber::ParseServedElement(&rest));
    response.elements.push_back(std::move(element));
  }
  if (!rest.empty()) return Status::Corruption("trailing bytes in response");
  return response;
}

std::string SerializeInsertRequest(const InsertRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kTagInsertRequest));
  PutVarint32(&out, request.user);
  PutVarint32(&out, request.list);
  zerber::AppendElement(&out, request.element);
  return out;
}

StatusOr<InsertRequest> ParseInsertRequest(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagInsertRequest));
  InsertRequest request;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.user));
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.list));
  std::string_view rest;
  ZR_RETURN_IF_ERROR(reader.GetRaw(reader.remaining(), &rest));
  ZR_ASSIGN_OR_RETURN(request.element, zerber::ParseElement(&rest));
  if (!rest.empty()) return Status::Corruption("trailing bytes in insert");
  return request;
}

std::string SerializeInsertResponse(const InsertResponse& response) {
  std::string out;
  out.push_back(static_cast<char>(kTagInsertResponse));
  PutVarint64(&out, response.handle);
  return out;
}

StatusOr<InsertResponse> ParseInsertResponse(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagInsertResponse));
  InsertResponse response;
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&response.handle));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return response;
}

std::string SerializeMultiFetchRequest(const MultiFetchRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kTagMultiFetchRequest));
  PutVarint32(&out, request.user);
  PutVarint64(&out, request.fetches.size());
  for (const FetchRange& f : request.fetches) {
    PutVarint32(&out, f.list);
    PutVarint64(&out, f.offset);
    PutVarint64(&out, f.count);
  }
  return out;
}

StatusOr<MultiFetchRequest> ParseMultiFetchRequest(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagMultiFetchRequest));
  MultiFetchRequest request;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.user));
  uint64_t n;
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&n));
  // Each range takes at least 3 bytes; a count beyond what the remaining
  // input could hold is corrupt, not a reason to allocate.
  if (n > reader.remaining() / 3) {
    return Status::Corruption("fetch count exceeds message size");
  }
  request.fetches.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    FetchRange f;
    ZR_RETURN_IF_ERROR(reader.GetVarint32(&f.list));
    ZR_RETURN_IF_ERROR(reader.GetVarint64(&f.offset));
    ZR_RETURN_IF_ERROR(reader.GetVarint64(&f.count));
    request.fetches.push_back(f);
  }
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return request;
}

std::string SerializeMultiFetchResponse(const MultiFetchResponse& response) {
  std::string out;
  out.push_back(static_cast<char>(kTagMultiFetchResponse));
  PutVarint64(&out, response.responses.size());
  for (const QueryResponse& r : response.responses) {
    PutLengthPrefixed(&out, SerializeQueryResponse(r));
  }
  return out;
}

StatusOr<MultiFetchResponse> ParseMultiFetchResponse(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagMultiFetchResponse));
  uint64_t n;
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&n));
  if (n > reader.remaining()) {
    return Status::Corruption("response count exceeds message size");
  }
  MultiFetchResponse response;
  response.responses.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view sub;
    ZR_RETURN_IF_ERROR(reader.GetLengthPrefixed(&sub));
    ZR_ASSIGN_OR_RETURN(QueryResponse r, ParseQueryResponse(sub));
    // The nested message's own wire footprint (used by per-list accounting).
    r.wire_size = sub.size();
    response.responses.push_back(std::move(r));
  }
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return response;
}

std::string SerializeDeleteRequest(const DeleteRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kTagDeleteRequest));
  PutVarint32(&out, request.user);
  PutVarint32(&out, request.list);
  PutVarint64(&out, request.handle);
  return out;
}

StatusOr<DeleteRequest> ParseDeleteRequest(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagDeleteRequest));
  DeleteRequest request;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.user));
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.list));
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&request.handle));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return request;
}

std::string SerializeDeleteResponse(const DeleteResponse&) {
  return std::string(1, static_cast<char>(kTagDeleteResponse));
}

StatusOr<DeleteResponse> ParseDeleteResponse(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagDeleteResponse));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return DeleteResponse{};
}

std::string SerializePingRequest(const PingRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kTagPingRequest));
  PutVarint64(&out, request.token);
  return out;
}

StatusOr<PingRequest> ParsePingRequest(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagPingRequest));
  PingRequest request;
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&request.token));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return request;
}

std::string SerializePingResponse(const PingResponse& response) {
  std::string out;
  out.push_back(static_cast<char>(kTagPingResponse));
  PutVarint64(&out, response.token);
  PutVarint64(&out, response.server_id);
  PutVarint64(&out, response.loop_id);
  return out;
}

StatusOr<PingResponse> ParsePingResponse(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagPingResponse));
  PingResponse response;
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&response.token));
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&response.server_id));
  ZR_RETURN_IF_ERROR(reader.GetVarint64(&response.loop_id));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return response;
}

std::string SerializeStatsRequest(const StatsRequest&) {
  return std::string(1, static_cast<char>(kTagStatsRequest));
}

StatusOr<StatsRequest> ParseStatsRequest(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagStatsRequest));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return StatsRequest{};
}

std::string SerializeStatsResponse(const StatsResponse& response) {
  std::string out;
  out.push_back(static_cast<char>(kTagStatsResponse));
  for (const auto& f : zerber::ServerStats::Fields()) {
    PutVarint64(&out, response.*f.member);
  }
  // Versioned tail: v1 ends here; a registry dump appends a version byte
  // and the length-prefixed text (see the struct comment in messages.h).
  if (!response.registry_text.empty()) {
    out.push_back(static_cast<char>(kStatsResponseV2));
    PutLengthPrefixed(&out, response.registry_text);
  }
  return out;
}

StatusOr<StatsResponse> ParseStatsResponse(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagStatsResponse));
  StatsResponse response;
  for (const auto& f : zerber::ServerStats::Fields()) {
    ZR_RETURN_IF_ERROR(reader.GetVarint64(&(response.*f.member)));
  }
  if (reader.empty()) return response;  // v1: fixed fields only
  std::string_view version;
  ZR_RETURN_IF_ERROR(reader.GetRaw(1, &version));
  if (static_cast<uint8_t>(version[0]) != kStatsResponseV2) {
    return Status::Corruption("unknown StatsResponse version");
  }
  std::string_view registry_text;
  ZR_RETURN_IF_ERROR(reader.GetLengthPrefixed(&registry_text));
  response.registry_text.assign(registry_text);
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return response;
}

std::string SerializeAclRequest(const AclRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(kTagAclRequest));
  out.push_back(static_cast<char>(request.op));
  PutVarint32(&out, request.user);
  PutVarint32(&out, request.group);
  return out;
}

StatusOr<AclRequest> ParseAclRequest(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagAclRequest));
  std::string_view op;
  ZR_RETURN_IF_ERROR(reader.GetRaw(1, &op));
  uint8_t op_byte = static_cast<uint8_t>(op[0]);
  if (op_byte < static_cast<uint8_t>(AclRequest::Op::kAddGroup) ||
      op_byte > static_cast<uint8_t>(AclRequest::Op::kRevoke)) {
    return Status::Corruption("unknown ACL op");
  }
  AclRequest request;
  request.op = static_cast<AclRequest::Op>(op_byte);
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.user));
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&request.group));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return request;
}

std::string SerializeAclResponse(const AclResponse&) {
  return std::string(1, static_cast<char>(kTagAclResponse));
}

StatusOr<AclResponse> ParseAclResponse(std::string_view data) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagAclResponse));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  return AclResponse{};
}

std::string SerializeErrorResponse(const Status& error) {
  assert(!error.ok() && "error responses carry non-OK statuses");
  std::string out;
  out.push_back(static_cast<char>(kTagErrorResponse));
  PutVarint32(&out, static_cast<uint32_t>(error.code()));
  PutLengthPrefixed(&out, error.message());
  return out;
}

Status ParseErrorResponse(std::string_view data, Status* decoded) {
  ByteReader reader(data);
  ZR_RETURN_IF_ERROR(ExpectTag(&reader, kTagErrorResponse));
  uint32_t code;
  ZR_RETURN_IF_ERROR(reader.GetVarint32(&code));
  if (code == static_cast<uint32_t>(StatusCode::kOk) ||
      code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("unknown status code in error message");
  }
  std::string_view message;
  ZR_RETURN_IF_ERROR(reader.GetLengthPrefixed(&message));
  ZR_RETURN_IF_ERROR(reader.ExpectEof());
  *decoded = Status(static_cast<StatusCode>(code), std::string(message));
  return Status::OK();
}

bool IsErrorResponse(std::string_view data) {
  return !data.empty() && static_cast<uint8_t>(data[0]) == kTagErrorResponse;
}

namespace {
size_t ElementsWireSize(const std::vector<zerber::ServedElement>& elements) {
  size_t total = 0;
  for (const zerber::ServedElement& e : elements) total += e.WireSize();
  return total;
}
}  // namespace

size_t WireSizeOfQueryRequest(const QueryRequest& request) {
  return 1 + static_cast<size_t>(VarintLength32(request.user)) +
         static_cast<size_t>(VarintLength32(request.list)) +
         static_cast<size_t>(VarintLength64(request.offset)) +
         static_cast<size_t>(VarintLength64(request.count));
}

size_t WireSizeOfQueryResponse(const QueryResponse& response) {
  return 1 + 1 +
         static_cast<size_t>(VarintLength64(response.elements.size())) +
         ElementsWireSize(response.elements);
}

size_t WireSizeOfInsertRequest(const InsertRequest& request) {
  return 1 + static_cast<size_t>(VarintLength32(request.user)) +
         static_cast<size_t>(VarintLength32(request.list)) +
         request.element.WireSize();
}

size_t WireSizeOfInsertResponse(const InsertResponse& response) {
  return 1 + static_cast<size_t>(VarintLength64(response.handle));
}

size_t WireSizeOfMultiFetchRequest(const MultiFetchRequest& request) {
  size_t total = 1 + static_cast<size_t>(VarintLength32(request.user)) +
                 static_cast<size_t>(VarintLength64(request.fetches.size()));
  for (const FetchRange& f : request.fetches) {
    total += static_cast<size_t>(VarintLength32(f.list)) +
             static_cast<size_t>(VarintLength64(f.offset)) +
             static_cast<size_t>(VarintLength64(f.count));
  }
  return total;
}

size_t WireSizeOfMultiFetchResponse(const MultiFetchResponse& response) {
  size_t total =
      1 + static_cast<size_t>(VarintLength64(response.responses.size()));
  for (const QueryResponse& r : response.responses) {
    size_t sub = WireSizeOfQueryResponse(r);
    total += static_cast<size_t>(VarintLength64(sub)) + sub;
  }
  return total;
}

size_t WireSizeOfDeleteRequest(const DeleteRequest& request) {
  return 1 + static_cast<size_t>(VarintLength32(request.user)) +
         static_cast<size_t>(VarintLength32(request.list)) +
         static_cast<size_t>(VarintLength64(request.handle));
}

size_t WireSizeOfDeleteResponse(const DeleteResponse&) { return 1; }

size_t WireSizeOfErrorResponse(const Status& error) {
  return 1 +
         static_cast<size_t>(
             VarintLength32(static_cast<uint32_t>(error.code()))) +
         static_cast<size_t>(VarintLength64(error.message().size())) +
         error.message().size();
}

size_t WireSizeOfPingRequest(const PingRequest& request) {
  return 1 + static_cast<size_t>(VarintLength64(request.token));
}

size_t WireSizeOfPingResponse(const PingResponse& response) {
  return 1 + static_cast<size_t>(VarintLength64(response.token)) +
         static_cast<size_t>(VarintLength64(response.server_id)) +
         static_cast<size_t>(VarintLength64(response.loop_id));
}

size_t WireSizeOfStatsRequest(const StatsRequest&) { return 1; }

size_t WireSizeOfStatsResponse(const StatsResponse& response) {
  size_t size = 1;
  for (const auto& f : zerber::ServerStats::Fields()) {
    size += static_cast<size_t>(VarintLength64(response.*f.member));
  }
  if (!response.registry_text.empty()) {
    size += 1 +
            static_cast<size_t>(VarintLength32(
                static_cast<uint32_t>(response.registry_text.size()))) +
            response.registry_text.size();
  }
  return size;
}

size_t WireSizeOfAclRequest(const AclRequest& request) {
  return 1 + 1 + static_cast<size_t>(VarintLength32(request.user)) +
         static_cast<size_t>(VarintLength32(request.group));
}

size_t WireSizeOfAclResponse(const AclResponse&) { return 1; }

}  // namespace zr::net
