// ClusterSupervisor: barrier-driven failover for the partitioned cluster
// engine (DESIGN.md §14).
//
// Machine loss is a cluster-scope fault (FaultKind::kMachineFailure /
// kMachineRestart) enacted at the shard barrier — the only instant the whole
// cluster rests in a consistent state. The engine kills the trials of groups
// whose machines died, then hands the supervisor the victims; the supervisor
// consults the regular PlacementPolicy registry for priority/BE/solo choices
// and re-places whole groups onto contiguous runs of surviving free machines
// through the same placement round as epoch placement
// (src/place/placement_round.h), bounded by a per-barrier migration budget.
// Replacements re-warm and carry a BE re-admission backoff (a
// kBeAdmissionHold window), so failover costs what it should. When the dead
// fraction reaches the survivability threshold the supervisor flips to
// degraded mode: every subsequent placement — epoch or failover — runs
// solo, suspending BE cluster-wide until enough machines rejoin.
//
// Determinism contract: everything here runs on the coordinating thread
// between Advance calls, consumes only slot-order-merged state, and draws no
// randomness of its own (the policy's seed is fixed at construction) — so a
// run with machine loss is bit-identical at any RHYTHM_SHARDS / RHYTHM_JOBS,
// with or without the supervisor enabled.
//
// Layering: this header needs src/place types (policy, views), so the
// implementation compiles into the rhythm_place library even though the file
// lives with the other controllers under src/control.

#ifndef RHYTHM_SRC_CONTROL_CLUSTER_SUPERVISOR_H_
#define RHYTHM_SRC_CONTROL_CLUSTER_SUPERVISOR_H_

#include <limits>
#include <vector>

#include "src/place/placement_round.h"

namespace rhythm {

struct SupervisorOptions {
  // Master switch. Disabled, machine losses still kill the victims' trials
  // (physics is not optional) but nothing is re-placed: disrupted demand
  // stays down until the next epoch re-places the cluster.
  bool enabled = false;
  // Most victim groups re-placed per loss barrier; victims beyond the budget
  // (in policy priority order) are lost for the rest of the epoch.
  int migration_budget = std::numeric_limits<int>::max();
  // BE re-admission backoff for migrated groups: every pod of a replacement
  // trial starts under a kBeAdmissionHold window of this length, so BE work
  // ramps back instead of slamming into a cold re-warmed group. <= 0: off.
  double readmission_backoff_s = 10.0;
  // Survivability threshold: when machines_down / machines >= this fraction,
  // degraded mode forces run_solo on every subsequent placement until
  // rejoins bring the dead fraction back under.
  double degraded_dead_fraction = 0.5;
};

class ClusterSupervisor {
 public:
  ClusterSupervisor(int machines, const SupervisorOptions& options);

  MachineRoster& roster() { return roster_; }

  // Degraded while enabled and the dead fraction sits at/above the
  // survivability threshold. Rejoins can clear it.
  bool degraded() const;

  // Failover plan for the victim groups: the placement round over
  // `victims` (pending renumbered 0..n-1, quota = the victims' epoch BEs)
  // under the migration budget, forced solo when degraded. Assignments come
  // back in policy priority order and name their victim by index into
  // `victims.pending`; first_machine == -1 marks a lost victim. Disabled,
  // the policy is not consulted and every victim comes back lost, in victim
  // order.
  std::vector<PlacementAssignment> PlanFailover(PlacementPolicy& policy,
                                                const ClusterView& victims);

  // Barrier accounting: counts barriers spent degraded (for
  // ClusterSummary::degraded_barriers).
  void ObserveBarrier();

  int degraded_barriers() const { return degraded_barriers_; }

 private:
  MachineRoster roster_;
  SupervisorOptions options_;
  int degraded_barriers_ = 0;
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_CONTROL_CLUSTER_SUPERVISOR_H_
