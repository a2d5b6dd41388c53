#include "proc_stats.h"

#include <sys/resource.h>
#include <time.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace zr::perfbench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Value of the first line of `path` that starts with `key` ("key: N").
uint64_t ReadKeyed(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoull(line.c_str() + key_len, nullptr, 10);
    }
  }
  return 0;
}

std::string ProcDir(pid_t pid) {
  return pid == 0 ? std::string("/proc/self")
                  : "/proc/" + std::to_string(pid);
}

}  // namespace

ProcCounters SampleSelf() {
  ProcCounters c;
  c.cpu_ns = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c.nivcsw = static_cast<uint64_t>(ru.ru_nivcsw);
  c.write_bytes = ReadKeyed("/proc/self/io", "write_bytes:");
  return c;
}

ProcCounters SamplePid(pid_t pid) {
  ProcCounters c;
  const std::string dir = ProcDir(pid);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task", ec)) {
    // schedstat's first field: nanoseconds this thread ran on a CPU.
    std::ifstream sched(task.path().string() + "/schedstat");
    uint64_t run_ns = 0;
    if (sched >> run_ns) c.cpu_ns += run_ns;
    c.nivcsw += ReadKeyed(task.path().string() + "/status",
                          "nonvoluntary_ctxt_switches:");
  }
  c.write_bytes = ReadKeyed(dir + "/io", "write_bytes:");
  return c;
}

ProcCounters SamplePids(const std::vector<pid_t>& pids) {
  ProcCounters sum;
  for (pid_t pid : pids) sum += SamplePid(pid);
  return sum;
}

uint64_t PeakRssKb(pid_t pid) {
  return ReadKeyed(ProcDir(pid) + "/status", "VmHWM:");
}

void ResetPeakRss(pid_t pid) {
  std::ofstream(ProcDir(pid) + "/clear_refs") << "5";
}

uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace zr::perfbench
