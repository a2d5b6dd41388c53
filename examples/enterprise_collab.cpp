// Enterprise collaboration scenario (paper Section 2).
//
// PCC (Production Control Company) shares access-controlled project
// documents through an untrusted index server. John leads projects for two
// customers and belongs to both groups; Dana works on one project only.
// John travels and queries over a 56 kb/s GPRS link, so response sizes
// matter (Sections 2 and 6.6).
//
// This example exercises multi-user ACLs directly (not through the
// single-user pipeline): per-group visibility, bandwidth accounting on the
// modem link, and the Zerber-vs-Zerber+R transfer comparison.

#include <cstdio>
#include <string>
#include <vector>

#include "core/trs.h"
#include "core/zerber_r_client.h"
#include "net/bandwidth.h"
#include "net/service.h"
#include "net/transport.h"
#include "synth/corpus_generator.h"
#include "zerber/merge_planner.h"
#include "zerber/zerber_client.h"
#include "zerber/zerber_index.h"

int main() {
  using namespace zr;

  // --- corpus: two projects (groups), a few hand-written docs each, plus
  // synthetic filler so the merge has realistic statistics.
  text::Corpus corpus;
  text::Tokenizer tokenizer;
  const uint32_t kProjectA = 0, kProjectB = 1;

  corpus.AddDocumentText(
      "Project Alpha milestone report: the conveyor controller deployment "
      "at the Hamburg plant is on schedule; controller tuning continues.",
      kProjectA, tokenizer);
  corpus.AddDocumentText(
      "Alpha risk register: controller latency spikes under full load; "
      "mitigation plan drafted with the customer.",
      kProjectA, tokenizer);
  corpus.AddDocumentText(
      "Alpha firmware changelog: controller watchdog fixes, controller "
      "boot sequence hardening, and updated controller diagnostics.",
      kProjectA, tokenizer);
  corpus.AddDocumentText(
      "Project Beta specification: robotic arm calibration procedure and "
      "the coating process parameters for the pilot line.",
      kProjectB, tokenizer);
  corpus.AddDocumentText(
      "Beta meeting minutes: supplier changed the coating compound; "
      "recalibration scheduled.",
      kProjectB, tokenizer);
  {
    // Filler documents to give the BFM merge realistic term statistics.
    synth::CorpusGeneratorOptions filler;
    filler.num_documents = 160;
    filler.vocabulary_size = 1500;
    filler.num_groups = 2;
    filler.seed = 99;
    auto synthetic = synth::GenerateCorpus(filler);
    if (!synthetic.ok()) return 1;
    for (const auto& doc : synthetic->documents()) {
      std::vector<std::pair<text::TermId, uint32_t>> counts;
      for (const auto& [term, tf] : doc.terms()) {
        auto term_string = synthetic->vocabulary().TermOf(term);
        if (!term_string.ok()) return 1;
        counts.emplace_back(corpus.vocabulary().GetOrAdd(*term_string), tf);
      }
      corpus.AddDocumentCounts(counts, doc.group());
    }
  }

  // --- offline phase: merge plan + RSTF training.
  auto plan = zerber::PlanBfmMerge(corpus, /*r=*/32.0);
  if (!plan.ok()) return 1;

  crypto::KeyStore keys("pcc-master-secret");
  (void)keys.CreateGroup(kProjectA);
  (void)keys.CreateGroup(kProjectB);

  auto training = core::SampleTrainingDocs(corpus, 0.5, 7);
  core::TrsTrainerOptions trainer;
  trainer.rstf.sigma = 0.005;
  auto assigner = core::TrainTrsAssigner(corpus, training, trainer, &keys);
  if (!assigner.ok()) return 1;

  // --- server with per-user ACLs, exposed through the typed service API.
  // All client traffic crosses a DirectTransport, which accounts every
  // request/response at its exact wire size, so the byte counts John's
  // GPRS session sees below are those of the real messages.
  zerber::IndexServer server(plan->NumLists(),
                             zerber::Placement::kTrsSorted, 31);
  const zerber::UserId kJohn = 1, kDana = 2;
  (void)server.acl().AddGroup(kProjectA);
  (void)server.acl().AddGroup(kProjectB);
  (void)server.acl().GrantMembership(kJohn, kProjectA);
  (void)server.acl().GrantMembership(kJohn, kProjectB);
  (void)server.acl().GrantMembership(kDana, kProjectB);

  net::IndexService service(&server);
  net::DirectTransport transport(&service);

  core::ZerberRClient john(kJohn, &keys, &*plan, &transport,
                           &corpus.vocabulary(), &*assigner);
  core::ZerberRClient dana(kDana, &keys, &*plan, &transport,
                           &corpus.vocabulary(), &*assigner);

  // John (member of both groups) indexes everything.
  for (const auto& doc : corpus.documents()) {
    auto status = john.IndexDocument(doc);
    if (!status.ok()) {
      std::fprintf(stderr, "index failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("PCC index: %llu sealed elements in %zu merged lists\n\n",
              static_cast<unsigned long long>(server.TotalElements()),
              server.NumLists());

  // --- queries: "controller" is a Project-Alpha term. Reset the transport's
  // counters so the GPRS session below covers only John's query traffic.
  transport.ResetStats();
  text::TermId controller = corpus.vocabulary().Lookup("controller");
  auto johns = john.QueryTopK(controller, 2);
  if (!johns.ok()) return 1;
  double john_gprs_seconds =
      net::TransferSeconds(transport.stats(), net::kModem56k, net::kModem56k);
  auto danas = dana.QueryTopK(controller, 2);
  if (!danas.ok()) return 1;

  std::printf("query 'controller' top-2 (Project Alpha content):\n");
  std::printf("  John (Alpha+Beta): %zu results\n", johns->results.size());
  for (const auto& d : johns->results) {
    std::printf("    doc %u score %.4f\n", d.doc_id, d.score);
  }
  std::printf("  Dana (Beta only):  %zu results  <- ACL filters Alpha "
              "documents server-side\n\n",
              danas->results.size());

  // --- bandwidth: John's PDA on GPRS (Section 2 / 6.6). The transport
  // counted the wire size of every message of John's query.
  std::printf("John's GPRS session for this query: %llu bytes down, "
              "%.2f s on the 56 kb/s link\n",
              static_cast<unsigned long long>(johns->trace.bytes_fetched),
              john_gprs_seconds);

  // --- what plain Zerber would have cost: the whole merged list.
  zerber::ZerberClient plain_john(kJohn, &keys, &*plan, &transport,
                                  &corpus.vocabulary());
  auto plain = plain_john.QueryTopK(controller, 2);
  if (!plain.ok()) return 1;
  std::printf("\ntransfer comparison for the same query:\n");
  std::printf("  plain Zerber:  %llu elements (whole merged list)\n",
              static_cast<unsigned long long>(plain->elements_fetched));
  std::printf("  Zerber+R:      %llu elements (%llu request(s))\n",
              static_cast<unsigned long long>(johns->trace.elements_fetched),
              static_cast<unsigned long long>(johns->trace.requests));
  double saving = 1.0 - static_cast<double>(johns->trace.elements_fetched) /
                            static_cast<double>(plain->elements_fetched);
  std::printf("  saved %.0f%% of the download on John's mobile link\n",
              100.0 * saving);
  return 0;
}
