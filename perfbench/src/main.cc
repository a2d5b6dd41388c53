// perfbench: one workload of the end-to-end benchmark.
//
//   perfbench --workload search|mixed|cluster --seed N --seconds S
//             --trace 0|1 --work-dir DIR --shard-server PATH
//             --trace-dir DIR
//
// --trace 0 measures the end-to-end metrics with no tracing installed;
// --trace 1 runs the same window untraced and then traced, and reports the
// per-layer metrics. perfbench/run.py builds this binary and calls it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* argv0) {
  std::string names;
  for (const std::string& n : zr::perfbench::WorkloadNames()) {
    names += (names.empty() ? "" : "|") + n;
  }
  std::fprintf(stderr,
               "usage: %s --workload %s --seed N --seconds S --trace 0|1\n"
               "          --work-dir DIR --shard-server PATH --trace-dir DIR\n",
               argv0, names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  zr::perfbench::RunOptions options;
  const zr::perfbench::WorkloadSpec* spec = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      spec = zr::perfbench::FindWorkload(value);
      if (spec == nullptr) return Usage(argv[0]);
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      options.work_dir = value;
    } else if (std::strcmp(flag, "--shard-server") == 0) {
      options.shard_server = value;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      options.trace_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (spec == nullptr || !(options.seconds > 0) || options.work_dir.empty() ||
      options.shard_server.empty() || options.trace_dir.empty() ||
      argc % 2 == 0) {
    return Usage(argv[0]);
  }
  return zr::perfbench::RunWorkload(*spec, options);
}
