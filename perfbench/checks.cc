#include "perfbench/checks.h"

#include <cmath>
#include <cstring>

#include "src/serve/json.h"
#include "src/serve/whatif.h"
#include "src/workload/app_catalog.h"

namespace perfbench {
namespace {

using rhythm::LcAppKindName;

// Equal up to floating-point rounding of a few operations.
bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max({std::fabs(a), std::fabs(b), 1e-300});
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

std::string Num(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

std::string CheckThresholdRanges(rhythm::LcAppKind app,
                                 const std::vector<rhythm::ServpodThresholds>& pods,
                                 const std::vector<double>& levels) {
  if (pods.empty()) {
    return std::string(LcAppKindName(app)) + ": no thresholds";
  }
  for (size_t pod = 0; pod < pods.size(); ++pod) {
    const std::string where = std::string(LcAppKindName(app)) + " pod " + std::to_string(pod);
    bool on_level = false;
    for (double level : levels) {
      on_level = on_level || pods[pod].loadlimit == level;
    }
    if (!on_level) {
      return where + ": loadlimit " + Num(pods[pod].loadlimit) + " is not a profile level";
    }
    if (!(pods[pod].slacklimit >= 0.12 && pods[pod].slacklimit <= 1.0)) {
      return where + ": slacklimit " + Num(pods[pod].slacklimit) + " outside [0.12, 1]";
    }
  }
  return {};
}

std::string CheckDiskReload(rhythm::LcAppKind app, const rhythm::AppThresholds& derived,
                            const rhythm::AppThresholds& reloaded) {
  const std::string name = LcAppKindName(app);
  if (derived.pods.size() != reloaded.pods.size() ||
      derived.contributions.size() != reloaded.contributions.size()) {
    return name + ": reloaded entry has a different pod count";
  }
  for (size_t pod = 0; pod < derived.pods.size(); ++pod) {
    const auto& a = derived.contributions[pod];
    const auto& b = reloaded.contributions[pod];
    const bool same = SameBits(derived.pods[pod].loadlimit, reloaded.pods[pod].loadlimit) &&
                      SameBits(derived.pods[pod].slacklimit, reloaded.pods[pod].slacklimit) &&
                      SameBits(a.contribution, b.contribution) &&
                      SameBits(a.weight_p, b.weight_p) &&
                      SameBits(a.correlation_rho, b.correlation_rho) &&
                      SameBits(a.varcoef_v, b.varcoef_v) && SameBits(a.alpha, b.alpha);
    if (!same) {
      return name + " pod " + std::to_string(pod) + ": disk entry does not reload bit-exactly";
    }
  }
  return {};
}

std::string CheckSameSummary(const std::string& first, const std::string& again) {
  if (first == again) {
    return {};
  }
  size_t at = 0;
  while (at < first.size() && at < again.size() && first[at] == again[at]) {
    ++at;
  }
  return "rerun summary differs at byte " + std::to_string(at);
}

std::string CheckClusterEmu(const rhythm::ClusterSummary& summary, double measure_s) {
  if (summary.machines <= 0 || summary.epochs <= 0) {
    return "summary has no machines or epochs";
  }
  double emu = 0.0;
  for (const rhythm::GroupOutcome& outcome : summary.groups) {
    if (outcome.placed) {
      emu += outcome.served_measure_s / measure_s * outcome.pods / summary.machines *
             outcome.summary.emu;
    }
  }
  emu /= summary.epochs;
  if (!Close(emu, summary.emu)) {
    return "cluster EMU " + Num(summary.emu) + " but the groups give " + Num(emu);
  }
  return {};
}

std::string CheckFailover(const rhythm::ClusterSummary& summary, int scheduled_losses,
                          double window_s) {
  if (summary.groups_disrupted != summary.groups_failed_over + summary.groups_lost) {
    return "groups_disrupted " + std::to_string(summary.groups_disrupted) +
           " != failed_over " + std::to_string(summary.groups_failed_over) + " + lost " +
           std::to_string(summary.groups_lost);
  }
  if (summary.machines_failed != scheduled_losses) {
    return "machines_failed " + std::to_string(summary.machines_failed) + " but " +
           std::to_string(scheduled_losses) + " losses were scheduled";
  }
  if (!(summary.worst_failover_latency_s <= window_s)) {
    return "worst_failover_latency_s " + Num(summary.worst_failover_latency_s) +
           " exceeds one " + Num(window_s) + " s window";
  }
  return {};
}

std::string CheckWhatIfResponse(int status, const std::string& served,
                                const std::string& batch) {
  if (status != 200) {
    return "status " + std::to_string(status);
  }
  if (served != batch) {
    size_t at = 0;
    while (at < served.size() && at < batch.size() && served[at] == batch[at]) {
      ++at;
    }
    return "served body differs from the batch body at byte " + std::to_string(at);
  }
  rhythm::JsonValue doc;
  std::string error;
  if (!rhythm::ParseJson(served, &doc, &error)) {
    return "response is not JSON: " + error;
  }
  rhythm::LcAppKind app{};
  const rhythm::JsonValue* summary = doc.Find("summary");
  if (!rhythm::ParseLcAppKindName(doc.StringOr("app", ""), &app) || summary == nullptr) {
    return "response lacks app or summary";
  }
  const double emu = summary->NumberOr("emu", -1.0);
  const double lc = summary->NumberOr("lc_throughput", -1.0);
  const double be = summary->NumberOr("be_throughput", -1.0);
  if (!Close(emu, lc + be)) {
    return "emu " + Num(emu) + " != lc_throughput + be_throughput " + Num(lc + be);
  }
  const double tail = summary->NumberOr("worst_tail_ms", -1.0);
  const double ratio = summary->NumberOr("worst_tail_ratio", -1.0);
  const double sla = rhythm::MakeApp(app).sla_ms;
  if (!Close(ratio, tail / sla)) {
    return "worst_tail_ratio " + Num(ratio) + " != worst_tail_ms / SLA " + Num(tail / sla);
  }
  return {};
}

}  // namespace perfbench
