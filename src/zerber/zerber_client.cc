#include "zerber/zerber_client.h"

#include <algorithm>
#include <limits>

namespace zr::zerber {

StatusOr<MergedListId> ZerberClient::ListOf(text::TermId term) const {
  // Only a term the plan does not hold needs its pseudonym (the fallback).
  auto it = plan_->term_to_list.find(term);
  if (it != plan_->term_to_list.end()) return it->second;
  ZR_ASSIGN_OR_RETURN(std::string term_string, vocab_->TermOf(term));
  return plan_->ListOf(term, keys_->TermPseudonym(term_string));
}

Status ZerberClient::UploadElement(text::TermId term, text::DocId doc,
                                   double score, crypto::GroupId group,
                                   double trs) {
  PostingPayload payload{term, doc, score};
  ZR_ASSIGN_OR_RETURN(EncryptedPostingElement element,
                      SealPostingElement(payload, group, trs, keys_));
  ZR_ASSIGN_OR_RETURN(MergedListId list, ListOf(term));
  net::InsertRequest request;
  request.user = user_;
  request.list = list;
  request.element = std::move(element);
  return service_->Insert(request).status();
}

StatusOr<size_t> ZerberClient::RemoveDocument(const text::Document& doc) {
  size_t removed = 0;
  for (const auto& [term, tf] : doc.terms()) {
    (void)tf;
    ZR_ASSIGN_OR_RETURN(MergedListId list, ListOf(term));
    net::QueryRequest fetch;
    fetch.user = user_;
    fetch.list = list;
    fetch.count = std::numeric_limits<uint64_t>::max();
    ZR_ASSIGN_OR_RETURN(net::QueryResponse fetched, service_->Fetch(fetch));
    for (const ServedElement& element : fetched.elements) {
      auto payload = OpenPostingElement(element, *keys_);
      if (!payload.ok()) {
        if (payload.status().IsPermissionDenied()) continue;
        return payload.status();
      }
      if (payload->term != term || payload->doc != doc.id()) continue;
      net::DeleteRequest erase;
      erase.user = user_;
      erase.list = list;
      erase.handle = element.handle;
      ZR_RETURN_IF_ERROR(service_->Delete(erase).status());
      ++removed;
      break;  // one element per (term, doc)
    }
  }
  return removed;
}

Status ZerberClient::IndexDocument(const text::Document& doc) {
  for (const auto& [term, tf] : doc.terms()) {
    (void)tf;
    double score = doc.RelevanceScore(term);
    ZR_RETURN_IF_ERROR(
        UploadElement(term, doc.id(), score, doc.group(), /*trs=*/0.0));
  }
  return Status::OK();
}

StatusOr<ClientQueryResult> ZerberClient::QueryTopK(text::TermId term,
                                                    size_t k) {
  ZR_ASSIGN_OR_RETURN(MergedListId list, ListOf(term));

  // Plain Zerber: one request for the entire accessible list.
  net::QueryRequest request;
  request.user = user_;
  request.list = list;
  request.count = std::numeric_limits<uint64_t>::max();
  ZR_ASSIGN_OR_RETURN(net::QueryResponse fetched, service_->Fetch(request));

  ClientQueryResult result;
  result.requests = 1;
  result.elements_fetched = fetched.elements.size();
  result.bytes_fetched = fetched.wire_size;

  std::vector<index::ScoredDoc> matches;
  for (const ServedElement& element : fetched.elements) {
    auto payload = OpenPostingElement(element, *keys_);
    if (!payload.ok()) {
      if (payload.status().IsPermissionDenied()) continue;  // foreign group
      return payload.status();
    }
    if (payload->term != term) continue;  // other merged term
    matches.push_back(index::ScoredDoc{payload->doc, payload->score});
  }
  std::sort(matches.begin(), matches.end(),
            [](const index::ScoredDoc& a, const index::ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc_id < b.doc_id;
            });
  if (matches.size() > k) matches.resize(k);
  result.results = std::move(matches);
  return result;
}

}  // namespace zr::zerber
