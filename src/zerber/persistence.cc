#include "zerber/persistence.h"

#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "store/fs.h"
#include "util/coding.h"

namespace zr::zerber {

namespace {
constexpr char kMagic[] = "ZBRIDX01";
constexpr size_t kMagicSize = 8;
constexpr size_t kChecksumSize = 32;

/// Fully parsed snapshot contents, validated before any server is mutated.
struct ParsedSnapshot {
  Placement placement = Placement::kTrsSorted;
  std::vector<std::vector<EncryptedPostingElement>> lists;
  std::vector<std::pair<crypto::GroupId, std::vector<UserId>>> groups;
};

StatusOr<ParsedSnapshot> ParseSnapshotBody(std::string_view snapshot) {
  if (snapshot.size() < kMagicSize + 1 + kChecksumSize) {
    return Status::Corruption("snapshot too short");
  }
  if (snapshot.substr(0, kMagicSize) != std::string_view(kMagic, kMagicSize)) {
    return Status::Corruption("bad snapshot magic");
  }
  std::string_view body = snapshot.substr(0, snapshot.size() - kChecksumSize);
  std::string_view checksum = snapshot.substr(snapshot.size() - kChecksumSize);
  crypto::Sha256Digest expected = crypto::Sha256::Hash(body);
  if (std::string_view(reinterpret_cast<const char*>(expected.data()),
                       kChecksumSize) != checksum) {
    return Status::Corruption("snapshot checksum mismatch");
  }

  ParsedSnapshot parsed;
  uint8_t placement_byte = static_cast<uint8_t>(snapshot[kMagicSize]);
  if (placement_byte > 1) return Status::Corruption("bad placement byte");
  parsed.placement = static_cast<Placement>(placement_byte);

  std::string_view cursor = body.substr(kMagicSize + 1);
  uint64_t num_lists;
  ZR_RETURN_IF_ERROR(GetVarint64Cursor(&cursor, &num_lists));
  if (num_lists > (uint64_t{1} << 26)) {
    return Status::Corruption("implausible list count");
  }

  parsed.lists.resize(static_cast<size_t>(num_lists));
  for (uint64_t l = 0; l < num_lists; ++l) {
    uint64_t count;
    ZR_RETURN_IF_ERROR(GetVarint64Cursor(&cursor, &count));
    if (count > cursor.size()) {  // each element is > 1 byte on the wire
      return Status::Corruption("implausible element count");
    }
    std::vector<EncryptedPostingElement>& elements =
        parsed.lists[static_cast<size_t>(l)];
    elements.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      ZR_ASSIGN_OR_RETURN(EncryptedPostingElement element,
                          ParseElement(&cursor));
      elements.push_back(std::move(element));
    }
  }

  uint64_t num_groups;
  ZR_RETURN_IF_ERROR(GetVarint64Cursor(&cursor, &num_groups));
  if (num_groups > cursor.size() / 2) {  // group id + user count, >= 2 bytes
    return Status::Corruption("implausible group count");
  }
  parsed.groups.reserve(static_cast<size_t>(num_groups));
  for (uint64_t g = 0; g < num_groups; ++g) {
    uint32_t group;
    ZR_RETURN_IF_ERROR(GetVarint32Cursor(&cursor, &group));
    uint64_t num_users;
    ZR_RETURN_IF_ERROR(GetVarint64Cursor(&cursor, &num_users));
    if (num_users > cursor.size()) {  // each user id is >= 1 byte
      return Status::Corruption("implausible user count");
    }
    std::vector<UserId> users;
    users.reserve(static_cast<size_t>(num_users));
    for (uint64_t u = 0; u < num_users; ++u) {
      uint32_t user;
      ZR_RETURN_IF_ERROR(GetVarint32Cursor(&cursor, &user));
      users.push_back(user);
    }
    parsed.groups.emplace_back(group, std::move(users));
  }
  if (!cursor.empty()) {
    return Status::Corruption("trailing bytes in snapshot");
  }
  return parsed;
}

Status ApplySnapshot(IndexServer* server, ParsedSnapshot parsed) {
  // Restore mutates lists and ACL wholesale; the persistence API is
  // quiescent-only by contract, so claim the capability for the caller.
  IndexServer& target = *server;
  QuiescenceLock quiesced(target.quiescence());
  for (size_t l = 0; l < parsed.lists.size(); ++l) {
    ZR_RETURN_IF_ERROR(target.RestoreElements(static_cast<MergedListId>(l),
                                              std::move(parsed.lists[l])));
  }
  for (auto& [group, users] : parsed.groups) {
    ZR_RETURN_IF_ERROR(target.acl().AddGroup(group));
    for (UserId user : users) {
      ZR_RETURN_IF_ERROR(target.acl().GrantMembership(user, group));
    }
  }
  return Status::OK();
}

}  // namespace

std::string SerializeIndexSnapshot(const IndexServer& server) {
  // Snapshotting walks raw list pointers (GetList) and the ACL; valid only
  // with the server externally quiesced (rotation holds the partition gate
  // exclusively, offline savers are single-threaded by construction).
  QuiescenceLock quiesced(server.quiescence());
  std::string out;
  out.append(kMagic, kMagicSize);
  out.push_back(static_cast<char>(server.placement()));

  PutVarint64(&out, server.NumLists());
  for (size_t l = 0; l < server.NumLists(); ++l) {
    const MergedList* list =
        server.GetList(static_cast<MergedListId>(l)).value();
    PutVarint64(&out, list->size());
    for (const auto& element : list->elements()) {
      AppendElement(&out, element);
    }
  }

  std::vector<crypto::GroupId> groups = server.acl().AllGroups();
  PutVarint64(&out, groups.size());
  for (crypto::GroupId group : groups) {
    PutVarint32(&out, group);
    std::vector<UserId> users = server.acl().MembersOf(group);
    PutVarint64(&out, users.size());
    for (UserId user : users) PutVarint32(&out, user);
  }

  crypto::Sha256Digest checksum = crypto::Sha256::Hash(out);
  out.append(reinterpret_cast<const char*>(checksum.data()), kChecksumSize);
  return out;
}

StatusOr<std::unique_ptr<IndexServer>> ParseIndexSnapshot(
    std::string_view snapshot, uint64_t rng_seed, HandleSpace handles) {
  ZR_ASSIGN_OR_RETURN(ParsedSnapshot parsed, ParseSnapshotBody(snapshot));
  auto server = std::make_unique<IndexServer>(parsed.lists.size(),
                                              parsed.placement, rng_seed,
                                              handles);
  ZR_RETURN_IF_ERROR(ApplySnapshot(server.get(), std::move(parsed)));
  return server;
}

Status RestoreSnapshotInto(IndexServer* server, std::string_view snapshot) {
  ZR_ASSIGN_OR_RETURN(ParsedSnapshot parsed, ParseSnapshotBody(snapshot));
  if (parsed.placement != server->placement()) {
    return Status::FailedPrecondition("snapshot placement mismatch");
  }
  if (parsed.lists.size() != server->NumLists()) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(parsed.lists.size()) +
        " lists, server has " + std::to_string(server->NumLists()));
  }
  {
    QuiescenceLock quiesced(server->quiescence());
    if (server->TotalElements() != 0 || server->acl().NumGroups() != 0) {
      return Status::FailedPrecondition("server is not empty");
    }
  }
  return ApplySnapshot(server, std::move(parsed));
}

Status SaveIndex(const IndexServer& server, const std::string& path) {
  return store::WriteFileAtomic(path, SerializeIndexSnapshot(server),
                                /*sync=*/true);
}

StatusOr<std::unique_ptr<IndexServer>> LoadIndex(const std::string& path,
                                                 uint64_t rng_seed,
                                                 HandleSpace handles) {
  ZR_ASSIGN_OR_RETURN(std::string snapshot, store::ReadFileToString(path));
  return ParseIndexSnapshot(snapshot, rng_seed, handles);
}

}  // namespace zr::zerber
