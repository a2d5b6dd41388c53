// Quickstart: index a handful of documents confidentially and run a
// server-side top-k query.
//
// Walks the full Zerber+R lifecycle from the paper's Section 5:
//   1. corpus + training sample
//   2. RSTF training (offline pre-computation phase)
//   3. BFM merge planning (r-confidentiality)
//   4. key provisioning + encrypted index build (online insertion phase)
//   5. top-k query with the doubling follow-up protocol
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "core/pipeline.h"

int main() {
  using namespace zr;

  // 1. A small document collection. Group 0: project Alpha, group 1: Beta.
  text::Corpus corpus;
  text::Tokenizer tokenizer;
  corpus.AddDocumentText(
      "The production control software adapts the assembly line controller "
      "for the customer plant; controller firmware and controller tests.",
      /*group=*/0, tokenizer);
  corpus.AddDocumentText(
      "Controller integration report: the controller passed the first "
      "factory acceptance test at the customer site.",
      0, tokenizer);
  corpus.AddDocumentText(
      "Meeting notes: schedule, staffing and the travel plan for the plant "
      "visit next month.",
      0, tokenizer);
  corpus.AddDocumentText(
      "Chemical compound analysis for the coating process; the compound "
      "supplier changed the formula.",
      1, tokenizer);
  corpus.AddDocumentText(
      "Compound test results and process parameters for the pilot batch.", 1,
      tokenizer);

  // 2-4. Assemble the deployment. The pipeline trains per-term RSTFs on a
  // training sample, plans the r-confidential BFM merge, provisions group
  // keys + ACLs, and uploads sealed posting elements.
  core::PipelineOptions options;
  options.preset.r = 8.0;               // confidentiality parameter
  options.preset.training_fraction = 1.0;  // tiny corpus: train on all docs
  options.sigma = 0.01;                 // RSTF kernel scale
  options.build_query_log = false;
  // Serve the index over a real socket (an in-process TcpServer) and
  // route the whole protocol through it, so the byte counts below are the
  // sizes of the messages that crossed the wire.
  options.transport = net::TransportKind::kTcp;
  auto built = core::BuildPipelineFromCorpus(std::move(corpus), options);
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  core::Pipeline& p = **built;

  std::printf("indexed %llu posting elements into %zu merged lists "
              "(r = %.0f)\n\n",
              static_cast<unsigned long long>(p.sharded->TotalElements()),
              p.sharded->NumLists(), options.preset.r);

  // 5. Query: top-2 documents for "controller".
  text::TermId term = p.corpus.vocabulary().Lookup("controller");
  if (term == text::kInvalidTermId) {
    std::fprintf(stderr, "term not found\n");
    return 1;
  }
  auto result = p.client->QueryTopK(term, 2);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("top-2 for 'controller':\n");
  for (const auto& doc : result->results) {
    std::printf("  doc %u  score %.4f\n", doc.doc_id, doc.score);
  }
  std::printf("\nprotocol (%s transport): %llu request(s), %llu elements "
              "transferred, %llu bytes\n",
              net::TransportKindName(options.transport),
              static_cast<unsigned long long>(result->trace.requests),
              static_cast<unsigned long long>(result->trace.elements_fetched),
              static_cast<unsigned long long>(result->trace.bytes_fetched));
  std::printf("the server never saw the term, the scores, or the documents — "
              "only list ids, TRS values and ciphertext.\n");
  return 0;
}
