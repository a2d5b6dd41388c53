#include "core/zerber_r_client.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace zr::core {

Status ZerberRClient::IndexDocument(const text::Document& doc) {
  for (const auto& [term, tf] : doc.terms()) {
    (void)tf;
    double score = doc.RelevanceScore(term);
    ZR_ASSIGN_OR_RETURN(std::string term_string, vocab_->TermOf(term));
    double trs = assigner_->Assign(term, term_string, doc.id(), score);
    ZR_RETURN_IF_ERROR(UploadElement(term, doc.id(), score, doc.group(), trs));
  }
  return Status::OK();
}

StatusOr<ZerberRClient::TermQuery> ZerberRClient::BeginQuery(
    text::TermId term) const {
  TermQuery q;
  q.term = term;
  ZR_ASSIGN_OR_RETURN(q.list, ListOf(term));
  return q;
}

Status ZerberRClient::AbsorbResponse(TermQuery* q, size_t k,
                                     const net::FetchRange& range,
                                     const net::QueryResponse& response) {
  // A server serves min(count, accessible - offset) elements and marks the
  // list exhausted when that reaches its tail; anything else is a lie.
  size_t served = response.elements.size();
  if (served > range.count || (served < range.count && !response.exhausted)) {
    return Status::Corruption(
        "server served " + std::to_string(served) + " of " +
        std::to_string(range.count) + " requested elements of list " +
        std::to_string(range.list) + " at offset " +
        std::to_string(range.offset) +
        (response.exhausted ? "" : " without reaching the list's end"));
  }

  for (const zerber::ServedElement& element : response.elements) {
    auto payload = OpenPostingElement(element, *keys_);
    if (!payload.ok()) {
      if (payload.status().IsPermissionDenied()) continue;
      return payload.status();
    }
    if (payload->term != q->term) continue;
    if (q->hits.size() < k) {
      q->hits.push_back(index::ScoredDoc{payload->doc, payload->score});
    }
  }

  q->exhausted = q->exhausted || response.exhausted;
  q->offset += served;
  ++q->request_index;
  return Status::OK();
}

bool ZerberRClient::Done(const TermQuery& q, size_t k) const {
  return q.hits.size() >= k || q.exhausted ||
         q.request_index >= kMaxRequests;
}

StatusOr<QueryTrace> ZerberRClient::RunRounds(std::span<TermQuery> queries,
                                              size_t k) {
  QueryTrace trace;
  std::vector<TermQuery*> open;
  net::MultiFetchRequest round{user_, {}};
  for (;;) {
    open.clear();
    round.fetches.clear();
    for (TermQuery& q : queries) {
      if (Done(q, k)) continue;
      open.push_back(&q);
      round.fetches.push_back(net::FetchRange{
          q.list, q.offset,
          RequestSize(protocol_.initial_response_size, q.request_index)});
    }
    if (open.empty()) break;

    net::MultiFetchResponse answer;
    if (open.size() == 1) {
      const net::FetchRange& r = round.fetches[0];
      ZR_ASSIGN_OR_RETURN(net::QueryResponse response,
                          service_->Fetch({user_, r.list, r.offset, r.count}));
      answer.wire_size = response.wire_size;
      answer.responses.push_back(std::move(response));
    } else {
      ZR_ASSIGN_OR_RETURN(answer, service_->MultiFetch(round));
      if (answer.responses.size() != open.size()) {
        return Status::Corruption(
            "MultiFetch answered " + std::to_string(answer.responses.size()) +
            " of " + std::to_string(open.size()) + " ranges");
      }
    }
    ++trace.requests;
    trace.bytes_fetched += answer.wire_size;
    for (size_t i = 0; i < open.size(); ++i) {
      trace.elements_fetched += answer.responses[i].elements.size();
      ZR_RETURN_IF_ERROR(
          AbsorbResponse(open[i], k, round.fetches[i], answer.responses[i]));
    }
  }
  for (const TermQuery& q : queries) {
    trace.hits += q.hits.size();
    trace.exhausted = trace.exhausted || q.exhausted;
  }
  return trace;
}

StatusOr<TopKResult> ZerberRClient::QueryTopK(text::TermId term, size_t k) {
  ZR_ASSIGN_OR_RETURN(TermQuery q, BeginQuery(term));
  TopKResult out;
  ZR_ASSIGN_OR_RETURN(out.trace, RunRounds({&q, 1}, k));

  // Elements arrive in descending TRS order; within one term that is
  // descending raw-score order (RSTF monotonicity), so results are already
  // ranked. Sort defensively for exact tie determinism.
  out.results = std::move(q.hits);
  std::stable_sort(out.results.begin(), out.results.end(),
                   [](const index::ScoredDoc& a, const index::ScoredDoc& b) {
                     return a.score > b.score;
                   });
  return out;
}

StatusOr<TopKResult> ZerberRClient::QueryTopKMulti(
    const std::vector<text::TermId>& terms, size_t k) {
  std::vector<TermQuery> queries;
  queries.reserve(terms.size());
  for (text::TermId term : terms) {
    ZR_ASSIGN_OR_RETURN(TermQuery q, BeginQuery(term));
    queries.push_back(std::move(q));
  }
  TopKResult out;
  ZR_ASSIGN_OR_RETURN(out.trace, RunRounds(queries, k));

  // Merge by summed raw scores.
  std::unordered_map<text::DocId, double> acc;
  for (const TermQuery& q : queries) {
    for (const index::ScoredDoc& d : q.hits) acc[d.doc_id] += d.score;
  }
  out.results.reserve(acc.size());
  for (const auto& [doc, score] : acc) {
    out.results.push_back(index::ScoredDoc{doc, score});
  }
  std::sort(out.results.begin(), out.results.end(),
            [](const index::ScoredDoc& a, const index::ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc_id < b.doc_id;
            });
  if (out.results.size() > k) out.results.resize(k);
  return out;
}

}  // namespace zr::core
