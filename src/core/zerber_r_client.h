// The Zerber+R client: TRS-aware insertion + the follow-up query protocol.

#ifndef ZERBERR_CORE_ZERBER_R_CLIENT_H_
#define ZERBERR_CORE_ZERBER_R_CLIENT_H_

#include <span>
#include <string>
#include <vector>

#include "core/query_protocol.h"
#include "core/trs.h"
#include "index/inverted_index.h"
#include "zerber/zerber_client.h"

namespace zr::core {

/// Result of a Zerber+R top-k query.
struct TopKResult {
  /// Ranked results, best first, at most k. Scores are the decrypted raw
  /// relevance scores (Equation 4), not TRS values.
  std::vector<index::ScoredDoc> results;

  /// Transfer accounting for Equations 12-14.
  QueryTrace trace;
};

/// Group member speaking the Zerber+R protocol.
///
/// Insertion (paper Section 5): "To index a document, its owner extracts the
/// document's terms, builds their elements, encrypts them, calculates TRS
/// values, and sends encrypted posting elements to the server along with the
/// IDs of the merged posting list ... and the TRS value."
class ZerberRClient : public zerber::ZerberClient {
 public:
  /// All pointers must outlive the client.
  ZerberRClient(zerber::UserId user, crypto::KeyStore* keys,
                const zerber::MergePlan* plan, net::ZerberService* service,
                const text::Vocabulary* vocab, const TrsAssigner* assigner,
                ProtocolOptions protocol = {})
      : ZerberClient(user, keys, plan, service, vocab),
        assigner_(assigner),
        protocol_(protocol) {}

  /// Uploads one sealed element per distinct term, carrying its TRS.
  Status IndexDocument(const text::Document& doc);

  /// Server-side top-k for a single term with doubling follow-ups.
  ///
  /// Because the RSTF is monotone, the TRS-sorted merged list presents each
  /// term's elements in descending relevance order; the first k decrypted
  /// hits *are* the term's top-k documents.
  StatusOr<TopKResult> QueryTopK(text::TermId term, size_t k);

  /// Multi-term query as a set of single-term queries (Section 3.2), run
  /// side by side: each round sends the next request of every term that
  /// still lacks k hits as one exchange (a MultiFetch while several terms
  /// are open, a Fetch when one is), so the query costs as many round trips
  /// as its slowest term. Each term's requests are exactly those of its
  /// single-term query. Results are merged client-side by summed raw
  /// scores; the paper accepts the slight accuracy loss vs TFxIDF as the
  /// price of hiding collection statistics.
  StatusOr<TopKResult> QueryTopKMulti(const std::vector<text::TermId>& terms,
                                      size_t k);

  const ProtocolOptions& protocol() const { return protocol_; }
  void set_protocol(const ProtocolOptions& protocol) { protocol_ = protocol; }

 private:
  /// Running state of one term's doubling-protocol query.
  struct TermQuery {
    text::TermId term = 0;
    zerber::MergedListId list = 0;
    size_t offset = 0;         ///< accessible elements consumed so far
    size_t request_index = 0;  ///< next request's slot in the schedule
    bool exhausted = false;    ///< a response served the list's tail
    std::vector<index::ScoredDoc> hits;  ///< the term's hits, at most k
  };

  /// Resolves the term's list.
  StatusOr<TermQuery> BeginQuery(text::TermId term) const;

  /// Checks a response against the range it answers (the server is
  /// untrusted), then folds it into the query state: decrypts and keeps
  /// the term's hits.
  Status AbsorbResponse(TermQuery* q, size_t k, const net::FetchRange& range,
                        const net::QueryResponse& response);

  /// True when the query needs no further requests.
  bool Done(const TermQuery& q, size_t k) const;

  /// Runs the queries in rounds until every one is Done: a round is one
  /// exchange carrying the next request of each open query. Returns the
  /// summed trace.
  StatusOr<QueryTrace> RunRounds(std::span<TermQuery> queries, size_t k);

  const TrsAssigner* assigner_;
  ProtocolOptions protocol_;
};

}  // namespace zr::core

#endif  // ZERBERR_CORE_ZERBER_R_CLIENT_H_
