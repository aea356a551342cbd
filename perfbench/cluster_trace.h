// Outside-in timing of one RunCluster call through the hooks the cluster
// engine already exposes: ClusterRunRequest::on_tick (barrier times, always
// on — one timestamp per 2 s window), and, when traced, a model_provider
// wrapping DefaultPlacementModel and a registered placement policy wrapping
// rhythm-aware whose Decide() calls are timed.

#ifndef PERFBENCH_CLUSTER_TRACE_H_
#define PERFBENCH_CLUSTER_TRACE_H_

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/place/cluster_engine.h"

namespace perfbench {

// The five LC applications the workloads place, in catalog order.
const std::vector<rhythm::LcAppKind>& FiveApps();
// "E-commerce" -> "ecommerce": the metric-name spelling of an app.
std::string MetricAppName(rhythm::LcAppKind app);

class ClusterTrace {
 public:
  explicit ClusterTrace(bool traced) : traced_(traced) {}
  ClusterTrace(const ClusterTrace&) = delete;
  ClusterTrace& operator=(const ClusterTrace&) = delete;

  // Installs the hooks on `request` (which must outlive no trace). Traced
  // requests run the timed rhythm-aware wrapper.
  void Attach(rhythm::ClusterRunRequest* request);

  // Brackets the RunCluster call to be measured; hooks fire outside the
  // bracket (warm reruns of the same request) are ignored.
  void Begin();
  void End();

  // RunCluster call -> first barrier.
  double FirstBarrierSeconds() const;
  // Per epoch: from its start (the call, or the previous epoch's last
  // barrier) to the barrier that ends its trials' warm-up — harvest,
  // placement, trial build and the warm-up windows.
  std::vector<double> EpochSetupSeconds(double warmup_s) const;
  double WallSeconds() const { return SecondsBetween(begin_, end_); }

  // Per-layer figures of the bracketed call (see README.md for each).
  void Report(const rhythm::ClusterSummary& summary, int shards,
              std::map<std::string, double>* layers) const;

 private:
  struct Barrier {
    Clock::time_point at;
    int epoch = 0;
    double window_end_s = 0.0;  // epoch-local.
    bool loss = false;
  };
  struct ModelCall {
    rhythm::LcAppKind app{};
    Clock::time_point begin, end;
    double cpu_begin = 0.0, cpu_end = 0.0;
  };

  bool traced_;
  std::atomic<bool> active_{false};
  Clock::time_point begin_, end_;
  double cpu_begin_ = 0.0, cpu_end_ = 0.0;
  std::vector<Barrier> barriers_;
  std::vector<ModelCall> model_calls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLUSTER_TRACE_H_
