// On-disk persistence of the index server state.
//
// The paper's deployment model is a long-lived centralized index; a real
// server must survive restarts. The format is a single snapshot file:
//
//   magic "ZBRIDX01"
//   body (SnapshotBody::Fields):
//     placement (1 byte)
//     varint num_lists
//       per list: varint element_count, elements (posting_element format)
//     varint num_groups
//       per group: varint group_id, varint num_users, varint user_ids
//   SHA-256 checksum of everything above (32 bytes)
//
// The checksum detects torn writes and bit rot; element-level integrity is
// additionally protected by each element's own HMAC tag (clients verify on
// decrypt, so even a malicious storage layer cannot forge payloads).
//
// A snapshot alone loses every mutation since it was taken; the durable
// storage engine (store/durable_service.h) pairs each snapshot with a
// write-ahead log and rotates between them, using the RestoreSnapshotInto
// entry point below to recover into pre-built (possibly sharded) servers.

#ifndef ZERBERR_ZERBER_PERSISTENCE_H_
#define ZERBERR_ZERBER_PERSISTENCE_H_

#include <memory>
#include <string>
#include <vector>

#include "util/codec.h"
#include "util/status.h"
#include "util/statusor.h"
#include "zerber/zerber_index.h"

namespace zr::zerber {

/// The body of a snapshot, between its magic and its checksum (parsed in
/// full before any server is touched).
struct SnapshotBody {
  /// One ACL group and its members.
  struct Group {
    crypto::GroupId group = 0;
    std::vector<UserId> users;

    static void Fields(auto& g, auto&& f) {
      f(g.group);
      f(g.users);
    }
  };

  Placement placement = Placement::kTrsSorted;
  std::vector<std::vector<EncryptedPostingElement>> lists;
  std::vector<Group> groups;

  static void Fields(auto& s, auto&& f) {
    f(s.placement);
    f(s.lists);
    f(s.groups);
  }
};

/// Serializes the full server state (lists + ACL) to a byte string.
std::string SerializeIndexSnapshot(const IndexServer& server);

/// Reconstructs a server from a snapshot byte string. Corruption if the
/// checksum or structure is invalid or a list holds a NaN key. `handles`
/// seeds the restored server's handle residue class (sharded deployments
/// restore shard s of N with {N, s} so post-restore inserts stay globally
/// unique).
StatusOr<std::unique_ptr<IndexServer>> ParseIndexSnapshot(
    std::string_view snapshot, uint64_t rng_seed = 1,
    HandleSpace handles = {});

/// Restores a snapshot into an existing *empty* server (the durable engine
/// recovers into shards owned by a ShardedIndexService this way). The
/// snapshot is fully validated — checksum, structure, no NaN key, matching
/// placement and list count — before the server is touched, so a
/// Corruption return leaves `server` unmodified. FailedPrecondition if the
/// server already holds elements or groups. Requires quiescence.
Status RestoreSnapshotInto(IndexServer* server, std::string_view snapshot);

/// Writes the snapshot atomically and durably: tmp file + fsync + rename +
/// directory fsync, so a power cut leaves either the old snapshot or the
/// complete new one — never a published-but-empty file. IO failures surface
/// as Internal.
Status SaveIndex(const IndexServer& server, const std::string& path);

/// Loads a snapshot file written by SaveIndex.
StatusOr<std::unique_ptr<IndexServer>> LoadIndex(const std::string& path,
                                                 uint64_t rng_seed = 1,
                                                 HandleSpace handles = {});

}  // namespace zr::zerber

namespace zr::codec {

template <>
struct Field<zerber::Placement>
    : EnumField<zerber::Placement, uint8_t, zerber::Placement::kRandomPlacement,
                zerber::Placement::kTrsSorted> {};

}  // namespace zr::codec

#endif  // ZERBERR_ZERBER_PERSISTENCE_H_
