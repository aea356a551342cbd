// Output checks of the benchmark's workloads. Each check is a pure function
// of the program's outputs and of facts fixed outside the program (the
// profile levels, the SLA catalog, the fault schedule the benchmark wrote),
// and returns an empty string when the output passes, else what is wrong.
// The selftest feeds each one a deliberately perturbed output to show it
// rejects it.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "src/cluster/app_thresholds.h"
#include "src/place/cluster_engine.h"

namespace perfbench {

// Every loadlimit is one of `levels` exactly and every slacklimit lies in
// [0.12, 1].
std::string CheckThresholdRanges(rhythm::LcAppKind app,
                                 const std::vector<rhythm::ServpodThresholds>& pods,
                                 const std::vector<double>& levels);

// The fields the disk cache stores (loadlimit, slacklimit and the five
// contribution terms) reloaded bit-exactly.
std::string CheckDiskReload(rhythm::LcAppKind app, const rhythm::AppThresholds& derived,
                            const rhythm::AppThresholds& reloaded);

// Two renderings of a ClusterSummary (groups included) are byte-identical.
std::string CheckSameSummary(const std::string& first, const std::string& again);

// Cluster EMU recomputed from the per-group outcomes — each incarnation's
// EMU weighted by its served share of the measurement window and its pods,
// divided by machines, averaged over epochs — matches summary.emu.
std::string CheckClusterEmu(const rhythm::ClusterSummary& summary, double measure_s);

// Failover accounting: disruptions are either failed over or lost, every
// scheduled loss was enacted, and no loss waited longer than one window.
std::string CheckFailover(const rhythm::ClusterSummary& summary, int scheduled_losses,
                          double window_s);

// One served what-if exchange: status 200, body byte-identical to the batch
// evaluation of the same request, emu == lc_throughput + be_throughput and
// worst_tail_ratio == worst_tail_ms / SLA of the queried app, both to within
// floating-point rounding.
std::string CheckWhatIfResponse(int status, const std::string& served,
                                const std::string& batch);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
