// The benchmark's own tests: each workload's checks on a reduced-size run,
// then each check fed a deliberately perturbed output.
//
//   selftest cold   needs an empty cache directory (derives one app);
//   selftest warm   needs the five apps in the cache directory.

#include <cmath>
#include <cstdio>

#include "perfbench/checks.h"
#include "perfbench/cluster_trace.h"
#include "perfbench/workloads.h"
#include "src/cluster/app_thresholds.h"
#include "src/cluster/profiler.h"
#include "src/control/machine_agent.h"
#include "src/serve/daemon.h"
#include "src/serve/whatif.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

void ExpectPassed(const std::string& what, const RunRecord& record) {
  for (const RunRecord::Check& check : record.checks) {
    Expect(check.failure.empty(), what + ": " + check.name + " " + check.failure);
  }
  Expect(!record.checks.empty() && record.failed == 0 && record.attempted > 0,
         what + ": checks ran, nothing failed");
  for (const char* metric : {"setup_s", "latency_ms", "emu"}) {
    const auto it = record.e2e.find(metric);
    Expect(it != record.e2e.end() && it->second > 0.0, what + ": " + metric + " > 0");
  }
}

void ExpectRejects(const std::string& what, const std::string& failure) {
  Expect(!failure.empty(), what + " rejected (" + failure + ")");
}

// `json` with the number after "key": replaced by `value`.
std::string ReplaceNumber(const std::string& json, const std::string& key,
                          const std::string& value) {
  const size_t at = json.find("\"" + key + "\":") + key.size() + 3;
  const size_t end = json.find_first_of(",}", at);
  return json.substr(0, at) + value + json.substr(end);
}

void SelftestCold() {
  // One app on a few machines: the cheapest cold query with real derivation.
  ColdConfig config;
  config.spec.machines = 6;
  config.spec.lc_demand = {{rhythm::LcAppKind::kSolr, 2, 0.35}};
  config.spec.be_backlog = {{rhythm::BeJobKind::kWordcount, 1.0}};
  RunOptions options;
  options.seed = 3;
  options.seconds = 0.0;
  options.trace = true;
  const RunRecord record = RunColdStart(config, options);
  ExpectPassed("cold_start reduced", record);
  Expect(record.layers.at("cluster.derive_s.solr") > 0.0, "cold_start: derive time traced");

  const rhythm::AppThresholds& derived = rhythm::CachedAppThresholds(rhythm::LcAppKind::kSolr);
  const std::vector<double> levels = rhythm::DefaultProfileLevels();
  std::vector<rhythm::ServpodThresholds> pods = derived.pods;
  pods[0].loadlimit += 0.01;
  ExpectRejects("loadlimit off the profile levels",
                CheckThresholdRanges(rhythm::LcAppKind::kSolr, pods, levels));
  pods = derived.pods;
  pods[0].slacklimit = 0.11;
  ExpectRejects("slacklimit below 0.12", CheckThresholdRanges(rhythm::LcAppKind::kSolr, pods, levels));
  rhythm::AppThresholds reloaded = derived;
  reloaded.contributions[0].alpha = std::nextafter(reloaded.contributions[0].alpha, 2.0);
  ExpectRejects("disk entry one ulp off",
                CheckDiskReload(rhythm::LcAppKind::kSolr, derived, reloaded));

  rhythm::ClusterRunRequest request;
  request.spec = config.spec;
  request.seed = 3;
  const rhythm::ClusterSummary summary = rhythm::RunCluster(request);
  rhythm::ClusterSummary changed = summary;
  changed.emu = std::nextafter(changed.emu, 1.0);
  ExpectRejects("rerun with an EMU one ulp off",
                CheckSameSummary(rhythm::ClusterSummaryJson(summary, true),
                                 rhythm::ClusterSummaryJson(changed, true)));
}

void SelftestWarm() {
  DiurnalConfig diurnal;
  diurnal.machines = 30;
  diurnal.warmup_s = 4.0;
  diurnal.measure_s = 10.0;
  diurnal.losses = 2;
  RunOptions options;
  options.seed = 5;
  options.trace = true;
  const RunRecord record = RunClusterDiurnal(diurnal, options);
  ExpectPassed("cluster_diurnal reduced", record);
  Expect(record.layers.at("control.machines_failed") == diurnal.losses,
         "cluster_diurnal: losses enacted");

  const rhythm::ClusterSummary summary = rhythm::RunCluster(DiurnalRequest(diurnal, 5));
  const double window = rhythm::MachineAgent::kPeriodSeconds;
  Expect(CheckClusterEmu(summary, diurnal.measure_s).empty() &&
             CheckFailover(summary, diurnal.losses, window).empty(),
         "unperturbed diurnal summary passes");
  rhythm::ClusterSummary changed = summary;
  changed.emu *= 1.0 + 1e-9;
  ExpectRejects("cluster EMU moved by 1e-9", CheckClusterEmu(changed, diurnal.measure_s));
  changed = summary;
  changed.groups_lost += 1;
  ExpectRejects("disruption not failed over or lost",
                CheckFailover(changed, diurnal.losses, window));
  ExpectRejects("a scheduled loss not enacted",
                CheckFailover(summary, diurnal.losses + 1, window));
  changed = summary;
  changed.worst_failover_latency_s = window + 0.5;
  ExpectRejects("failover slower than one window", CheckFailover(changed, diurnal.losses, window));

  ServeConfig serve;
  serve.apps = {rhythm::LcAppKind::kSolr};
  serve.warmup_s = 2.0;
  serve.measure_s = 8.0;
  serve.rate_qps = 20.0;
  serve.min_requests = 12;
  serve.setup_starts = 2;
  serve.sweep_seconds = 1.0;
  serve.sweep_budget_s = 60.0;
  serve.runner_samples = 3;
  options.seconds = 0.5;
  const RunRecord served = RunServeOpenLoop(serve, options);
  ExpectPassed("serve_openloop reduced", served);
  Expect(served.attempted >= 14, "serve_openloop: set-up and fixed-rate queries attempted");
  Expect(served.layers.at("serve.max_rate_qps") > serve.rate_qps,
         "serve_openloop: the sweep found a capacity above the fixed rate");

  const std::string body = WhatIfBody(serve, 5, 0);
  const std::string batch = rhythm::EvalWhatIfJson(body, {});
  Expect(CheckWhatIfResponse(200, batch, batch).empty(), "unperturbed response passes");
  std::string flipped = batch;
  flipped[flipped.size() / 2] ^= 1;
  ExpectRejects("one flipped response byte", CheckWhatIfResponse(200, flipped, batch));
  ExpectRejects("a 503 response", CheckWhatIfResponse(503, batch, batch));
  const std::string bad_emu = ReplaceNumber(batch, "emu", "0.123");
  ExpectRejects("emu != lc + be", CheckWhatIfResponse(200, bad_emu, bad_emu));
  const std::string bad_ratio = ReplaceNumber(batch, "worst_tail_ratio", "0.5");
  ExpectRejects("worst_tail_ratio != tail / SLA", CheckWhatIfResponse(200, bad_ratio, bad_ratio));
}

}  // namespace

int SelftestMain(const std::string& part) {
  try {
    if (part == "cold") {
      SelftestCold();
    } else if (part == "warm") {
      SelftestWarm();
    } else {
      std::fprintf(stderr, "selftest: part must be cold or warm\n");
      return 2;
    }
  } catch (const std::exception& error) {
    Expect(false, std::string("selftest threw: ") + error.what());
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
