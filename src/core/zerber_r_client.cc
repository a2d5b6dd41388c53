#include "core/zerber_r_client.h"

#include <algorithm>
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
    text::TermId term, size_t k) const {
  TermQuery q;
  q.term = term;
  ZR_ASSIGN_OR_RETURN(q.list, ListOf(term));

  q.initial = protocol_.initial_response_size;
  if (protocol_.adaptive_initial_size && q.list < plan_->lists.size()) {
    // Footnote-1 extension: one interleaved "stripe" of the merged list per
    // expected hit.
    q.initial = std::max<size_t>(q.initial, k * plan_->lists[q.list].size());
  }
  return q;
}

Status ZerberRClient::AbsorbResponse(TermQuery* q, size_t k,
                                     const net::QueryResponse& response) {
  ++q->out.trace.requests;
  q->out.trace.elements_fetched += response.elements.size();
  q->out.trace.bytes_fetched += response.wire_size;

  for (const zerber::ServedElement& element : response.elements) {
    auto payload = OpenPostingElement(element, *keys_);
    if (!payload.ok()) {
      if (payload.status().IsPermissionDenied()) continue;
      return payload.status();
    }
    if (payload->term != q->term) continue;
    if (q->out.trace.hits < k) {
      q->out.results.push_back(
          index::ScoredDoc{payload->doc, payload->score});
      ++q->out.trace.hits;
    }
  }

  if (response.exhausted) q->out.trace.exhausted = true;
  q->offset += response.elements.size();
  ++q->request_index;
  return Status::OK();
}

bool ZerberRClient::Done(const TermQuery& q, size_t k) const {
  return q.out.trace.hits >= k || q.out.trace.exhausted ||
         q.out.trace.requests >= protocol_.max_requests;
}

Status ZerberRClient::RunToCompletion(TermQuery* q, size_t k) {
  while (!Done(*q, k)) {
    net::QueryRequest request;
    request.user = user_;
    request.list = q->list;
    request.offset = q->offset;
    request.count = RequestSize(q->initial, q->request_index);
    ZR_ASSIGN_OR_RETURN(net::QueryResponse response,
                        service_->Fetch(request));
    ZR_RETURN_IF_ERROR(AbsorbResponse(q, k, response));
  }
  return Status::OK();
}

StatusOr<TopKResult> ZerberRClient::QueryTopK(text::TermId term, size_t k) {
  ZR_ASSIGN_OR_RETURN(TermQuery q, BeginQuery(term, k));
  ZR_RETURN_IF_ERROR(RunToCompletion(&q, k));

  // Elements arrive in descending TRS order; within one term that is
  // descending raw-score order (RSTF monotonicity), so results are already
  // ranked. Sort defensively for exact tie determinism.
  std::stable_sort(q.out.results.begin(), q.out.results.end(),
                   [](const index::ScoredDoc& a, const index::ScoredDoc& b) {
                     return a.score > b.score;
                   });
  return std::move(q.out);
}

StatusOr<TopKResult> ZerberRClient::QueryTopKMulti(
    const std::vector<text::TermId>& terms, size_t k) {
  TopKResult out;
  if (terms.empty()) return out;

  // Initial requests of every term batched into one round trip.
  std::vector<TermQuery> queries;
  queries.reserve(terms.size());
  net::MultiFetchRequest batch;
  batch.user = user_;
  batch.fetches.reserve(terms.size());
  for (text::TermId term : terms) {
    ZR_ASSIGN_OR_RETURN(TermQuery q, BeginQuery(term, k));
    net::FetchRange range;
    range.list = q.list;
    range.offset = 0;
    range.count = RequestSize(q.initial, 0);
    batch.fetches.push_back(range);
    queries.push_back(std::move(q));
  }
  ZR_ASSIGN_OR_RETURN(net::MultiFetchResponse initial,
                      service_->MultiFetch(batch));
  if (initial.responses.size() != queries.size()) {
    return Status::Internal("MultiFetch answered " +
                            std::to_string(initial.responses.size()) +
                            " of " + std::to_string(queries.size()) +
                            " ranges");
  }

  // Absorb the batched responses, then run per-term follow-ups.
  uint64_t nested_bytes = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    nested_bytes += initial.responses[i].wire_size;
    ZR_RETURN_IF_ERROR(AbsorbResponse(&queries[i], k, initial.responses[i]));
    ZR_RETURN_IF_ERROR(RunToCompletion(&queries[i], k));
  }

  // Merge by summed raw scores; fold per-term traces into one. The batched
  // round collapses the terms' initial requests into a single request, and
  // its bytes are the real MultiFetchResponse message (envelope included)
  // rather than the nested per-term responses absorbed above.
  std::unordered_map<text::DocId, double> acc;
  for (TermQuery& q : queries) {
    out.trace.requests += q.out.trace.requests;
    out.trace.elements_fetched += q.out.trace.elements_fetched;
    out.trace.bytes_fetched += q.out.trace.bytes_fetched;
    out.trace.hits += q.out.trace.hits;
    out.trace.exhausted = out.trace.exhausted || q.out.trace.exhausted;
    for (const index::ScoredDoc& d : q.out.results) {
      acc[d.doc_id] += d.score;
    }
  }
  out.trace.requests -= queries.size() - 1;
  out.trace.bytes_fetched += initial.wire_size;
  out.trace.bytes_fetched -= nested_bytes;

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
