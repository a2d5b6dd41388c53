// Process counters the benchmark snapshots around a window: CPU time,
// involuntary context switches, bytes written to storage and peak resident
// memory, for this process and for the shard processes it started.

#ifndef ZERBERR_PERFBENCH_PROC_STATS_H_
#define ZERBERR_PERFBENCH_PROC_STATS_H_

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace zr::perfbench {

struct ProcCounters {
  uint64_t cpu_ns = 0;       ///< user + system CPU
  uint64_t nivcsw = 0;       ///< involuntary context switches, all threads
  uint64_t write_bytes = 0;  ///< bytes sent to the storage layer

  ProcCounters operator-(const ProcCounters& before) const {
    return {cpu_ns - before.cpu_ns, nivcsw - before.nivcsw,
            write_bytes - before.write_bytes};
  }
  ProcCounters& operator+=(const ProcCounters& other) {
    cpu_ns += other.cpu_ns;
    nivcsw += other.nivcsw;
    write_bytes += other.write_bytes;
    return *this;
  }
};

/// This process.
ProcCounters SampleSelf();

/// Another process of this user, summed over its live threads.
ProcCounters SamplePid(pid_t pid);

/// Sum over `pids`.
ProcCounters SamplePids(const std::vector<pid_t>& pids);

/// Peak resident set (VmHWM) in KiB; pid 0 means this process.
uint64_t PeakRssKb(pid_t pid);

/// Restarts the peak resident set count at the current resident set.
void ResetPeakRss(pid_t pid);

/// CPU time of the calling thread.
uint64_t ThreadCpuNs();

}  // namespace zr::perfbench

#endif  // ZERBERR_PERFBENCH_PROC_STATS_H_
