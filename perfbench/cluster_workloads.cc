// cold_start and cluster_diurnal.

#include <iterator>
#include <memory>
#include <set>

#include "perfbench/checks.h"
#include "perfbench/cluster_trace.h"
#include "perfbench/workloads.h"
#include "src/cluster/app_thresholds.h"
#include "src/cluster/profiler.h"
#include "src/common/stats.h"
#include "src/control/machine_agent.h"
#include "src/fault/fault_schedule.h"
#include "src/runner/run_request.h"
#include "src/serve/whatif.h"

namespace perfbench {
namespace {

std::set<rhythm::LcAppKind> SpecApps(const rhythm::ClusterSpec& spec) {
  std::set<rhythm::LcAppKind> apps;
  for (const rhythm::LcGroupDemand& demand : spec.lc_demand) {
    apps.insert(demand.app);
  }
  return apps;
}

uint64_t PlacedTrials(const rhythm::ClusterSummary& summary) {
  uint64_t trials = 0;
  for (const rhythm::GroupOutcome& outcome : summary.groups) {
    trials += outcome.placed ? 1 : 0;
  }
  return trials;
}

rhythm::RunnerOptions ClusterRunner(int shards) {
  rhythm::RunnerOptions runner;
  runner.jobs = shards;
  runner.shards = shards;
  return runner;
}

}  // namespace

RunRecord RunColdStart(const ColdConfig& config, const RunOptions& options) {
  RunRecord record;
  const std::set<rhythm::LcAppKind> apps = SpecApps(config.spec);
  for (rhythm::LcAppKind app : apps) {
    const std::string path = rhythm::ThresholdDiskCachePath(app);
    if (path.empty() || FileExists(path)) {
      record.AddCheck("cache.fresh", "threshold cache is unset or already holds " +
                                         MetricAppName(app));
      return record;
    }
  }

  rhythm::ClusterRunRequest request;
  request.spec = config.spec;
  request.seed = options.seed;
  ClusterTrace trace(options.trace);
  trace.Attach(&request);
  // One shard: the query's few short windows would otherwise time barrier
  // waits more than work, and derivation is serial either way.
  const rhythm::RunnerOptions runner = ClusterRunner(1);

  trace.Begin();
  const rhythm::ClusterSummary first = rhythm::RunCluster(request, runner);
  trace.End();
  record.attempted += 1 + PlacedTrials(first);

  // Checks on the derivation, outside the timed region.
  std::string ranges, reload;
  for (rhythm::LcAppKind app : apps) {
    const rhythm::AppThresholds& derived = rhythm::CachedAppThresholds(app);
    if (ranges.empty()) {
      ranges = CheckThresholdRanges(app, derived.pods, rhythm::DefaultProfileLevels());
    }
    rhythm::AppThresholds reloaded;
    if (!rhythm::LoadThresholdsFromDisk(rhythm::ThresholdDiskCachePath(app),
                                        static_cast<int>(derived.pods.size()), &reloaded)) {
      reload = MetricAppName(app) + ": no readable disk cache entry";
    } else if (reload.empty()) {
      reload = CheckDiskReload(app, derived, reloaded);
    }
  }
  record.AddCheck("cold.threshold_ranges", ranges);
  record.AddCheck("cold.disk_reload", reload);

  // Warm queries in whole cycles of kWarmSeeds request seeds, until
  // --seconds have passed (one cycle at least). The first of each cycle
  // repeats the cold query exactly, and its summary must be identical; the
  // others use request seeds drawn from --seed, because one seed's trials can
  // cost a third more than another's and the median answer time should not
  // hang on a single seed. Whole cycles keep the seed mix behind the median
  // the same however fast the queries run.
  constexpr int kWarmSeeds = 8;
  const std::string first_json = rhythm::ClusterSummaryJson(first, true);
  std::string rerun;
  std::vector<double> warm_s;
  double timed_s = 0.0;
  for (int i = 0; i % kWarmSeeds != 0 || i == 0 || timed_s < options.seconds; ++i) {
    rhythm::ClusterRunRequest warm = request;
    if (i % kWarmSeeds != 0) {
      warm.seed = rhythm::DeriveTrialSeed(options.seed, static_cast<uint64_t>(i % kWarmSeeds));
    }
    const Clock::time_point begin = Clock::now();
    const rhythm::ClusterSummary again = rhythm::RunCluster(warm, runner);
    warm_s.push_back(SecondsBetween(begin, Clock::now()));
    timed_s += warm_s.back();
    record.attempted += 1 + PlacedTrials(again);
    if (i % kWarmSeeds == 0 && rerun.empty()) {
      rerun = CheckSameSummary(first_json, rhythm::ClusterSummaryJson(again, true));
    }
  }
  record.AddCheck("cold.warm_rerun_identical", rerun);

  record.e2e["setup_s"] = trace.WallSeconds();
  record.e2e["latency_ms"] = 1e3 * rhythm::Percentile(warm_s, 0.5);
  record.e2e["emu"] = first.emu;
  if (options.trace) {
    trace.Report(first, 1, &record.layers);
    for (rhythm::LcAppKind app : FiveApps()) {
      double seconds = 0.0;
      if (apps.count(app) != 0) {
        const Clock::time_point begin = Clock::now();
        rhythm::ProfileSolo(app, rhythm::DefaultProfileLevels(), {});
        seconds = SecondsBetween(begin, Clock::now());
      }
      record.layers["cluster.profile_s." + MetricAppName(app)] = seconds;
    }
  }
  return record;
}

rhythm::ClusterRunRequest DiurnalRequest(const DiurnalConfig& config, uint64_t seed) {
  rhythm::ClusterRunRequest request;
  request.spec = rhythm::SyntheticClusterSpec(config.machines, kDiurnalSpecSeed);
  request.seed = seed;
  request.warmup_s = config.warmup_s;
  request.measure_s = config.measure_s;
  request.epoch_load_scale.assign(std::begin(kEpochLoadScale), std::end(kEpochLoadScale));
  request.epochs = static_cast<int>(request.epoch_load_scale.size());
  request.supervisor.enabled = true;
  // Permanent losses of evenly spaced machines, mid-measure of the peak
  // epoch (epoch 1) and one second off a barrier.
  const double span_s = config.warmup_s + config.measure_s;
  rhythm::FaultSchedule losses;
  for (int i = 0; i < config.losses; ++i) {
    rhythm::FaultEvent event;
    event.kind = rhythm::FaultKind::kMachineFailure;
    event.pod = static_cast<int>(static_cast<int64_t>(i) * config.machines / config.losses);
    event.start_s = span_s + config.warmup_s + 0.5 * config.measure_s + 1.0;
    losses.Add(event);
  }
  request.faults = std::make_shared<rhythm::FaultSchedule>(std::move(losses));
  return request;
}

RunRecord RunClusterDiurnal(const DiurnalConfig& config, const RunOptions& options) {
  RunRecord record;
  rhythm::ClusterRunRequest request = DiurnalRequest(config, options.seed);
  for (rhythm::LcAppKind app : SpecApps(request.spec)) {
    if (!FileExists(rhythm::ThresholdDiskCachePath(app))) {
      record.AddCheck("cache.warm", "threshold cache lacks " + MetricAppName(app));
      return record;
    }
  }
  ClusterTrace trace(options.trace);
  trace.Attach(&request);
  trace.Begin();
  const rhythm::ClusterSummary summary = rhythm::RunCluster(request, ClusterRunner(kShards));
  trace.End();
  record.attempted += 1 + PlacedTrials(summary);

  record.AddCheck("diurnal.emu_recomputed", CheckClusterEmu(summary, config.measure_s));
  record.AddCheck("diurnal.failover_accounting",
                  CheckFailover(summary, config.losses, rhythm::MachineAgent::kPeriodSeconds));

  const std::vector<double> epoch_setup_s = trace.EpochSetupSeconds(config.warmup_s);
  record.AddCheck("diurnal.epochs_observed",
                  epoch_setup_s.size() == std::size(kEpochLoadScale)
                      ? ""
                      : "saw " + std::to_string(epoch_setup_s.size()) + " epoch warm-ups");
  record.e2e["setup_s"] = rhythm::Percentile(epoch_setup_s, 0.5);
  record.e2e["latency_ms"] = 1e3 * trace.WallSeconds();
  record.e2e["emu"] = summary.emu;
  if (options.trace) {
    trace.Report(summary, kShards, &record.layers);
  }
  return record;
}

}  // namespace perfbench
