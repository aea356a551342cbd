// The benchmark's three workloads. Each runs in its own fresh process,
// measures with plain clocks around public calls, checks its outputs outside
// the timed region and fills one RunRecord. The *Config structs carry the
// workload's make-up; the defaults are the benchmark's, and the selftest runs
// the same code on reduced sizes.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/place/cluster_engine.h"
#include "src/workload/app_catalog.h"

namespace perfbench {

// Worker threads and shards for every cluster run, and daemon workers: above
// 1, below the 4 cores of the reference host.
inline constexpr int kShards = 3;

// cluster_diurnal's fixed make-up: SyntheticClusterSpec seed, and the load
// scale of each epoch (night, peak, evening).
inline constexpr uint64_t kDiurnalSpecSeed = 11;
inline constexpr double kEpochLoadScale[] = {0.7, 1.0, 0.85};

// serve_openloop: the loads queries cycle through, the client's connections
// in flight at most, the tail percentile and the tail limit behind
// serve.max_rate_qps.
inline constexpr double kServeLoads[] = {0.3, 0.5, 0.7};
inline constexpr int kConnections = 4;
inline constexpr double kTailQuantile = 0.90;
inline constexpr double kLatencyLimitMs = 100.0;

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// cold_start: a cluster query in a process whose threshold cache is empty.
struct ColdConfig {
  rhythm::ClusterSpec spec = rhythm::DefaultEvalClusterSpec(32);
};
RunRecord RunColdStart(const ColdConfig& config, const RunOptions& options);

// cluster_diurnal: a warm three-epoch synthetic cluster day with machine loss
// in the peak epoch, supervisor on. The cluster's make-up is fixed by
// kDiurnalSpecSeed; the run's seed drives every trial.
struct DiurnalConfig {
  int machines = 240;
  double warmup_s = 10.0;
  double measure_s = 60.0;
  int losses = 3;
};
RunRecord RunClusterDiurnal(const DiurnalConfig& config, const RunOptions& options);
// The diurnal day as a cluster request (hooks not attached).
rhythm::ClusterRunRequest DiurnalRequest(const DiurnalConfig& config, uint64_t seed);

// serve_openloop: open-loop Poisson what-if traffic against a loopback
// daemon.
struct ServeConfig {
  std::vector<rhythm::LcAppKind> apps;  // empty: the five apps.
  double warmup_s = 5.0;
  double measure_s = 25.0;
  double rate_qps = 16.0;          // the fixed offered rate.
  int min_requests = 100;          // p90 keeps >= 10 samples beyond it.
  int setup_starts = 25;           // daemon starts behind setup_s.
  double sweep_seconds = 4.0;      // per offered rate (traced runs).
  double sweep_budget_s = 75.0;    // wall time the rate sweep may take.
  int runner_samples = 30;         // bodies re-run with TrialHooks (traced).
};
RunRecord RunServeOpenLoop(const ServeConfig& config, const RunOptions& options);

// The what-if body of query `index`: app, BE kind and load cycle so every
// block of apps x 6 x loads queries covers each combination once; the trial
// seed is drawn from (seed, index), so no two bodies are equal.
std::string WhatIfBody(const ServeConfig& config, uint64_t seed, uint64_t index);

// Open-loop sender, run as the separate client process: reads the schedule
// and bodies from stdin, sends them over kConnections connections, writes one
// result per request to stdout.
int LoadgenMain();

// Derives the five apps' thresholds into the cache named by
// RHYTHM_THRESHOLD_CACHE, one thread per app.
int FillCacheMain();

// One fixed single-threaded trial: a host-speed calibration figure.
int CalibrateMain();

// Reduced-size pass of every workload's checks, plus each check rejecting a
// perturbed output. Needs an empty cache directory.
int SelftestMain(const std::string& part);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
