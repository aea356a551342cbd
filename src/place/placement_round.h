// One placement round: the decision every cluster placement makes, in one
// place. Epoch placement, supervisor failover (src/control/
// cluster_supervisor.h) and the /v1/placements sweep all call
// RunPlacementRound, so they cannot drift apart on what a valid policy
// answer is or on which machines a group gets (DESIGN.md §12).
//
// A round, in order:
//   1. calls policy.OnTick(view) and policy.Decide(view), once each;
//   2. checks the decision contract — one decision per pending group, every
//      group decided exactly once, non-solo BEs drawn from view.be_quota —
//      and throws std::invalid_argument naming the policy otherwise;
//   3. allocates first-fit on the MachineRoster in decision (priority)
//      order, stopping after `budget` placements; a decision that fits
//      nowhere, or falls past the budget, comes back unplaced, and later
//      smaller groups may still land;
//   4. forces every assignment solo when `degraded` (BE suspended
//      cluster-wide).
// It returns one assignment per decision, in decision order.

#ifndef RHYTHM_SRC_PLACE_PLACEMENT_ROUND_H_
#define RHYTHM_SRC_PLACE_PLACEMENT_ROUND_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/place/placement_policy.h"

namespace rhythm {

// Machine liveness + occupancy, the allocation substrate of every round.
// First-fit over contiguous alive+free runs: with every machine alive and
// nothing released this is exactly a cursor handing out machines in order.
class MachineRoster {
 public:
  explicit MachineRoster(int machines);

  int machines() const { return static_cast<int>(state_.size()); }
  int down() const { return down_; }
  int alive() const { return machines() - down_; }

  // Loss/rejoin transitions. Return false (and change nothing) when the
  // machine is already in the target state — duplicate schedule events
  // degrade to no-ops.
  bool MarkDown(int machine);
  bool MarkUp(int machine);

  // Lowest-index contiguous run of `pods` alive+free machines, marked
  // occupied; -1 when no such run exists.
  int Allocate(int pods);

  // Frees the surviving machines of [first, first + pods); dead ones stay
  // dead (they free on rejoin).
  void Release(int first, int pods);

  // Epoch boundary: every occupied machine frees; dead machines stay dead.
  void ReleaseAll();

 private:
  enum State : uint8_t { kFree = 0, kOccupied = 1, kDead = 2 };
  std::vector<uint8_t> state_;
  int down_ = 0;
};

// Per-app scoring models with a cache: the returned accessor runs
// `provider` (null: DefaultPlacementModel) at most once per app, however
// often it and its copies are called.
std::function<const AppPlacementModel&(LcAppKind)> CachedPlacementModels(
    std::function<AppPlacementModel(LcAppKind)> provider);

// The view of one epoch: every group of `spec` pending, each load scaled by
// `load_scale` and clamped to [0, 1], the BE quota expanded over them.
// `spec` must outlive the view.
ClusterView EpochView(const ClusterSpec& spec, int epoch, double load_scale,
                      std::function<const AppPlacementModel&(LcAppKind)> models);

// One decision as the round enacted it.
struct PlacementAssignment {
  int group = 0;  // index into view.pending.
  BeJobKind be = BeJobKind::kCpuStress;
  bool run_solo = false;  // the policy's choice, or forced by degraded mode.
  double score = 0.0;
  int first_machine = -1;  // -1: unplaced (no fit, or past the budget).
};

std::vector<PlacementAssignment> RunPlacementRound(
    PlacementPolicy& policy, const ClusterView& view, MachineRoster& roster,
    bool degraded, int budget = std::numeric_limits<int>::max());

}  // namespace rhythm

#endif  // RHYTHM_SRC_PLACE_PLACEMENT_ROUND_H_
