#include "src/control/cluster_supervisor.h"

#include <stdexcept>

namespace rhythm {

ClusterSupervisor::ClusterSupervisor(int machines, const SupervisorOptions& options)
    : roster_(machines), options_(options) {
  if (options_.migration_budget < 0) {
    throw std::invalid_argument("SupervisorOptions: migration_budget must be >= 0");
  }
  if (!(options_.degraded_dead_fraction > 0.0) || options_.degraded_dead_fraction > 1.0) {
    throw std::invalid_argument(
        "SupervisorOptions: degraded_dead_fraction must lie in (0, 1]");
  }
}

bool ClusterSupervisor::degraded() const {
  return options_.enabled &&
         static_cast<double>(roster_.down()) >=
             options_.degraded_dead_fraction * roster_.machines();
}

std::vector<PlacementAssignment> ClusterSupervisor::PlanFailover(
    PlacementPolicy& policy, const ClusterView& victims) {
  if (!options_.enabled) {
    std::vector<PlacementAssignment> lost(victims.pending.size());
    for (size_t v = 0; v < lost.size(); ++v) {
      lost[v].group = static_cast<int>(v);
    }
    return lost;
  }
  return RunPlacementRound(policy, victims, roster_, degraded(),
                           options_.migration_budget);
}

void ClusterSupervisor::ObserveBarrier() {
  if (degraded()) {
    ++degraded_barriers_;
  }
}

}  // namespace rhythm
