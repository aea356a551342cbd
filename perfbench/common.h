// Shared helpers of the benchmark binary: wall and CPU clocks, peak memory
// and the result record every workload fills in. Order statistics come from
// rhythm::Percentile (src/common/stats.h).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();

// VmHWM of this process in MiB.
double PeakRssMb();

bool FileExists(const std::string& path);

// What one workload run reports back to run.py, printed as one JSON line.
struct RunRecord {
  struct Check {
    std::string name;
    std::string failure;  // empty: passed.
  };
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;     // end-to-end metrics.
  std::map<std::string, double> layers;  // per-layer metrics (traced runs).

  void AddCheck(const std::string& name, const std::string& failure) {
    checks.push_back({name, failure});
  }
  bool ok() const;
  std::string Json() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
