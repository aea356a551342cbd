// perfbench: the C++ half of the benchmark (run.py is the other).
//
//   perfbench <cold_start|cluster_diurnal|serve_openloop>
//                    --seed N --seconds S --trace 0|1
//       runs one workload and prints its RunRecord as the last stdout line;
//       exits 1 when a check fails.
//   perfbench fill        derive the five apps into the cache dir
//   perfbench calibrate   host-speed figure (fixed trial's events/s)
//   perfbench selftest <cold|warm>
//   perfbench loadgen     the open-loop client process
//
// The threshold cache directory comes from RHYTHM_THRESHOLD_CACHE, which
// run.py sets per run; worker, shard and daemon thread counts are fixed in
// code (workloads.h), never read from the environment.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/cluster_trace.h"
#include "perfbench/workloads.h"
#include "src/cluster/app_thresholds.h"
#include "src/cluster/deployment.h"
#include "src/common/stats.h"
#include "src/runner/runner.h"

namespace perfbench {

int FillCacheMain() {
  if (rhythm::ThresholdDiskCachePath(FiveApps().front()).empty()) {
    std::fprintf(stderr, "fill: RHYTHM_THRESHOLD_CACHE is not set\n");
    return 1;
  }
  std::vector<std::thread> threads;
  for (rhythm::LcAppKind app : FiveApps()) {
    threads.emplace_back([app] { rhythm::CachedAppThresholds(app); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return 0;
}

int CalibrateMain() {
  rhythm::RunRequest request;
  request.app = rhythm::LcAppKind::kRedis;
  request.be = rhythm::BeJobKind::kWordcount;
  request.seed = 1;
  // Fixed thresholds: the figure must not depend on a threshold cache.
  request.thresholds.assign(rhythm::MakeApp(request.app).pod_count(),
                            rhythm::ServpodThresholds{});
  std::vector<double> rates;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point started, inspected;
    uint64_t events = 0;
    rhythm::TrialHooks hooks;
    hooks.after_start = [&](rhythm::Deployment&) { started = Clock::now(); };
    hooks.inspect = [&](const rhythm::Deployment& deployment, const rhythm::RunSummary&) {
      inspected = Clock::now();
      events = deployment.sim().executed_events();
    };
    rhythm::Run(request, hooks);
    rates.push_back(static_cast<double>(events) / SecondsBetween(started, inspected));
  }
  std::printf("{\"calibration_events_per_s\": %.17g}\n", rhythm::Percentile(rates, 0.5));
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A client process that dies early must fail the run, not kill it.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "loadgen") {
    return LoadgenMain();
  }
  if (mode == "fill") {
    return FillCacheMain();
  }
  if (mode == "calibrate") {
    return CalibrateMain();
  }
  if (mode == "selftest") {
    return SelftestMain(argc > 2 ? argv[2] : "");
  }

  RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      options.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(argv[i + 1]);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(argv[i + 1], "1") == 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  RunRecord record;
  try {
    if (mode == "cold_start") {
      record = RunColdStart(ColdConfig{}, options);
    } else if (mode == "cluster_diurnal") {
      record = RunClusterDiurnal(DiurnalConfig{}, options);
    } else if (mode == "serve_openloop") {
      record = RunServeOpenLoop(ServeConfig{}, options);
    } else {
      std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    record.AddCheck("run", std::string("threw: ") + error.what());
    ++record.failed;
  }
  // A workload whose checks run after it sets its own figure first.
  record.e2e.emplace("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", record.Json().c_str());
  return record.ok() ? 0 : 1;
}
