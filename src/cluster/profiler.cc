#include "src/cluster/profiler.h"

#include "src/cluster/deployment.h"
#include "src/common/shard_pool.h"
#include "src/trace/sojourn_extractor.h"

namespace rhythm {

std::vector<double> DefaultProfileLevels() {
  std::vector<double> levels;
  for (int pct = 5; pct <= 95; pct += 5) {
    levels.push_back(pct / 100.0);
  }
  return levels;
}

namespace {

// What one load level contributes to the profile.
struct LevelProfile {
  std::vector<double> sojourn_ms;  // per pod.
  std::vector<double> cov;         // per pod.
  double tail_ms = 0.0;
  uint64_t requests = 0;
};

LevelProfile ProfileLevel(LcAppKind app_kind, int pods, bool tracer, double load,
                          uint64_t seed, const ProfileOptions& options) {
  MeanSojournSink sojourns(TracerConfig{.program_base = 100, .num_pods = pods});
  DeploymentConfig config;
  config.app_kind = app_kind;
  config.controller = ControllerKind::kNone;
  config.enable_be = false;
  config.record_sojourns = true;
  config.seed = seed;
  config.tail_window_s = options.measure_s;  // tail over the whole window.
  if (tracer) {
    config.sink = &sojourns;
    config.noise_events_per_request = options.noise_events_per_request;
  }
  Deployment deployment(config);
  const ConstantLoad profile(load);
  deployment.Start(&profile);
  deployment.RunFor(options.warmup_s);
  deployment.service().ResetSojourns();
  sojourns.Clear();
  deployment.RunFor(options.measure_s);

  LevelProfile level;
  const SojournSummary summary = sojourns.Summary();
  for (int pod = 0; pod < pods; ++pod) {
    const RunningStats& stats = deployment.service().PodSojournStats(pod);
    level.sojourn_ms.push_back(tracer ? summary.mean_sojourn_s[pod] * 1000.0 : stats.mean());
    level.cov.push_back(stats.cov());
  }
  level.tail_ms = deployment.service().TailLatencyMs();
  level.requests = deployment.service().completed_requests();
  return level;
}

}  // namespace

ProfileResult ProfileSolo(LcAppKind app_kind, const std::vector<double>& levels,
                          const ProfileOptions& options) {
  ProfileResult result;
  result.levels = levels;
  const AppSpec app = MakeApp(app_kind);
  const int pods = app.pod_count();
  const bool tracer = options.use_tracer && !app.builtin_tracing;

  result.matrix.pod_sojourn_ms.assign(pods, {});
  result.pod_cov.assign(pods, {});
  result.matrix.load_levels = levels;

  // Levels are independent runs seeded by level index, so they run in
  // parallel and are gathered in level order.
  const std::vector<LevelProfile> profiled = ParallelFor(levels.size(), [&](size_t level) {
    return ProfileLevel(app_kind, pods, tracer, levels[level], options.seed + level * 1009,
                        options);
  });
  for (const LevelProfile& level : profiled) {
    for (int pod = 0; pod < pods; ++pod) {
      result.matrix.pod_sojourn_ms[pod].push_back(level.sojourn_ms[pod]);
      result.pod_cov[pod].push_back(level.cov[pod]);
    }
    result.matrix.tail_ms.push_back(level.tail_ms);
    result.requests_profiled += level.requests;
  }
  return result;
}

}  // namespace rhythm
