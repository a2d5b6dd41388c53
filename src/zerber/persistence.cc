#include "zerber/persistence.h"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "store/fs.h"

namespace zr::zerber {

namespace {
constexpr char kMagic[] = "ZBRIDX01";
constexpr size_t kMagicSize = 8;
constexpr size_t kChecksumSize = 32;

/// The snapshot body as the encoder hands it over: the server's lists by
/// view, so rotation copies no element.
struct SnapshotView {
  Placement placement = Placement::kTrsSorted;
  std::vector<std::span<const EncryptedPostingElement>> lists;
  std::vector<SnapshotBody::Group> groups;

  static void Fields(auto& s, auto&& f) { SnapshotBody::Fields(s, f); }
};

StatusOr<SnapshotBody> ParseSnapshotBody(std::string_view snapshot) {
  if (snapshot.size() < kMagicSize + kChecksumSize) {
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
  ZR_ASSIGN_OR_RETURN(SnapshotBody parsed,
                      codec::Decode<SnapshotBody>(body.substr(kMagicSize)));
  // Every list is kept in key order, which a NaN key has no place in;
  // refuse it here, before ApplySnapshot touches any list.
  for (size_t l = 0; l < parsed.lists.size(); ++l) {
    for (const auto& element : parsed.lists[l]) {
      if (std::isnan(element.trs)) {
        return Status::Corruption("NaN TRS in snapshot list " +
                                  std::to_string(l));
      }
    }
  }
  return parsed;
}

Status ApplySnapshot(IndexServer* server, SnapshotBody parsed) {
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
  SnapshotView body{server.placement(), {}, {}};
  body.lists.reserve(server.NumLists());
  for (size_t l = 0; l < server.NumLists(); ++l) {
    body.lists.emplace_back(
        server.GetList(static_cast<MergedListId>(l)).value()->elements());
  }
  for (crypto::GroupId group : server.acl().AllGroups()) {
    body.groups.push_back({group, server.acl().MembersOf(group)});
  }
  std::string out(kMagic, kMagicSize);
  codec::PutFields(&out, body);

  crypto::Sha256Digest checksum = crypto::Sha256::Hash(out);
  out.append(reinterpret_cast<const char*>(checksum.data()), kChecksumSize);
  return out;
}

StatusOr<std::unique_ptr<IndexServer>> ParseIndexSnapshot(
    std::string_view snapshot, uint64_t rng_seed, HandleSpace handles) {
  ZR_ASSIGN_OR_RETURN(SnapshotBody parsed, ParseSnapshotBody(snapshot));
  auto server = std::make_unique<IndexServer>(parsed.lists.size(),
                                              parsed.placement, rng_seed,
                                              handles);
  ZR_RETURN_IF_ERROR(ApplySnapshot(server.get(), std::move(parsed)));
  return server;
}

Status RestoreSnapshotInto(IndexServer* server, std::string_view snapshot) {
  ZR_ASSIGN_OR_RETURN(SnapshotBody parsed, ParseSnapshotBody(snapshot));
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
