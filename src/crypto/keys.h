// Group key management.
//
// In the Zerber model (paper Sections 2-3) documents belong to collaboration
// groups; members of a group share key material that the index server never
// sees. The KeyStore holds per-group master secrets and derives independent
// encryption/MAC subkeys, plus a corpus-wide directory key used to map terms
// to opaque pseudonyms so the server only ever sees posting-list IDs.

#ifndef ZERBERR_CRYPTO_KEYS_H_
#define ZERBERR_CRYPTO_KEYS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "crypto/ctr.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "util/status.h"
#include "util/statusor.h"

namespace zr::crypto {

/// Identifier of a collaboration group.
using GroupId = uint32_t;

/// Derived key pair for sealing posting elements of one group.
struct GroupKeys {
  std::string enc_key;  ///< 16-byte AES-128 key.
  std::string mac_key;  ///< 32-byte HMAC key.
};

/// Client-side key store. The index server has no access to an instance of
/// this class; it only ever handles sealed bytes and pseudonymous IDs.
///
/// Every key is derived and prepared once: the directory key's HMAC
/// midstates at construction, a group's subkeys and its SealingKey in
/// CreateGroup. Seal and open paths then only look keys up.
///
/// Thread-safety contract: CreateGroup mutates the store and must happen
/// before any concurrent seal or open (in practice: register every group
/// while building the deployment, before serving). After that the prepared
/// keys are read-only, so SealingKeyOf, TermPseudonym, DeterministicUnit
/// and GetGroupKeys may run on any number of threads, and NextNonce is
/// atomic.
class KeyStore {
 public:
  /// Creates a store whose keys are derived deterministically from `seed`
  /// (reproducible experiments). Use a high-entropy seed in production.
  explicit KeyStore(std::string_view seed);

  /// Registers a group, generates its master secret, and derives and
  /// prepares its keys. AlreadyExists if the group was registered before.
  /// Not safe to run concurrently with any other call (see above).
  Status CreateGroup(GroupId group);

  /// True if the group exists.
  bool HasGroup(GroupId group) const;

  /// Derived encryption + MAC keys for a group. NotFound if unknown.
  StatusOr<GroupKeys> GetGroupKeys(GroupId group) const;

  /// The group's prepared sealing key, built in CreateGroup from the keys
  /// GetGroupKeys returns. NotFound if unknown. The pointer stays valid for
  /// the store's lifetime.
  StatusOr<const SealingKey*> SealingKeyOf(GroupId group) const;

  /// Deterministic pseudonym of a term under the directory key. The server
  /// observes pseudonyms (as posting-list lookup keys), never terms.
  uint64_t TermPseudonym(std::string_view term) const;

  /// Deterministic pseudo-random value in [0,1) bound to (term, context).
  /// Used for assigning random-but-reproducible TRS values to terms that
  /// were absent from the RSTF training set (paper Section 5.1.1).
  double DeterministicUnit(std::string_view term, uint64_t context) const;

  /// Fresh unique nonce for sealing (monotonic counter mixed with the
  /// seed). Safe to call from concurrent sealing threads — the counter is
  /// atomic, so nonces stay unique under the multi-threaded load driver.
  uint64_t NextNonce();

 private:
  struct Group {
    GroupKeys keys;
    SealingKey sealing;
  };

  // Declaration order is initialization order: the directory key and the
  // nonce salt are the DRBG's first two draws.
  Drbg drbg_;
  HmacKey directory_;
  uint64_t nonce_salt_;
  std::map<GroupId, Group> groups_;
  std::atomic<uint64_t> nonce_counter_{0};
};

}  // namespace zr::crypto

#endif  // ZERBERR_CRYPTO_KEYS_H_
