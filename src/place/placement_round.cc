#include "src/place/placement_round.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace rhythm {

MachineRoster::MachineRoster(int machines)
    : state_(static_cast<size_t>(machines), kFree) {
  RHYTHM_CHECK(machines > 0);
}

bool MachineRoster::MarkDown(int machine) {
  if (machine < 0 || machine >= machines() ||
      state_[static_cast<size_t>(machine)] == kDead) {
    return false;
  }
  state_[static_cast<size_t>(machine)] = kDead;
  ++down_;
  return true;
}

bool MachineRoster::MarkUp(int machine) {
  if (machine < 0 || machine >= machines() ||
      state_[static_cast<size_t>(machine)] != kDead) {
    return false;
  }
  state_[static_cast<size_t>(machine)] = kFree;  // rejoins come back empty.
  --down_;
  return true;
}

int MachineRoster::Allocate(int pods) {
  if (pods <= 0 || pods > machines()) {
    return -1;
  }
  int run = 0;
  for (int m = 0; m < machines(); ++m) {
    if (state_[static_cast<size_t>(m)] == kFree) {
      if (++run == pods) {
        const int first = m - pods + 1;
        for (int k = first; k <= m; ++k) {
          state_[static_cast<size_t>(k)] = kOccupied;
        }
        return first;
      }
    } else {
      run = 0;
    }
  }
  return -1;
}

void MachineRoster::Release(int first, int pods) {
  for (int m = first; m < first + pods; ++m) {
    if (m >= 0 && m < machines() && state_[static_cast<size_t>(m)] == kOccupied) {
      state_[static_cast<size_t>(m)] = kFree;
    }
  }
}

void MachineRoster::ReleaseAll() {
  for (uint8_t& state : state_) {
    if (state == kOccupied) {
      state = kFree;
    }
  }
}

std::function<const AppPlacementModel&(LcAppKind)> CachedPlacementModels(
    std::function<AppPlacementModel(LcAppKind)> provider) {
  auto models = std::make_shared<std::map<LcAppKind, AppPlacementModel>>();
  return [models, provider = std::move(provider)](
             LcAppKind app) -> const AppPlacementModel& {
    auto it = models->find(app);
    if (it == models->end()) {
      it = models->emplace(app, provider ? provider(app)
                                         : DefaultPlacementModel(app))
               .first;
    }
    return it->second;
  };
}

ClusterView EpochView(const ClusterSpec& spec, int epoch, double load_scale,
                      std::function<const AppPlacementModel&(LcAppKind)> models) {
  ClusterView view;
  view.spec = &spec;
  view.epoch = epoch;
  view.load_scale = load_scale;
  view.pending = ExpandGroups(spec);
  for (PendingGroup& group : view.pending) {
    group.load = std::clamp(group.load * load_scale, 0.0, 1.0);
  }
  view.be_quota = ExpandBeQuota(spec, static_cast<int>(view.pending.size()));
  view.model = std::move(models);
  return view;
}

std::vector<PlacementAssignment> RunPlacementRound(
    PlacementPolicy& policy, const ClusterView& view, MachineRoster& roster,
    bool degraded, int budget) {
  policy.OnTick(view);
  const std::vector<PlacementDecision> decisions = policy.Decide(view);

  const std::string who = "placement policy \"" + policy.name() + "\"";
  if (decisions.size() != view.pending.size()) {
    throw std::invalid_argument(who + " returned " +
                                std::to_string(decisions.size()) +
                                " decisions for " +
                                std::to_string(view.pending.size()) + " groups");
  }
  std::vector<bool> decided(view.pending.size(), false);
  std::map<BeJobKind, int> quota_left;
  for (BeJobKind be : view.be_quota) {
    ++quota_left[be];
  }
  for (const PlacementDecision& decision : decisions) {
    if (decision.group < 0 ||
        decision.group >= static_cast<int>(view.pending.size()) ||
        decided[static_cast<size_t>(decision.group)]) {
      throw std::invalid_argument(who + " decided group " +
                                  std::to_string(decision.group) +
                                  " zero or multiple times");
    }
    decided[static_cast<size_t>(decision.group)] = true;
    if (!decision.run_solo && --quota_left[decision.be] < 0) {
      throw std::invalid_argument(who + " overdraws the BE quota");
    }
  }

  std::vector<PlacementAssignment> assignments;
  assignments.reserve(decisions.size());
  for (const PlacementDecision& decision : decisions) {
    PlacementAssignment assignment;
    assignment.group = decision.group;
    assignment.be = decision.be;
    assignment.run_solo = decision.run_solo || degraded;
    assignment.score = decision.score;
    if (budget > 0) {
      assignment.first_machine = roster.Allocate(
          view.pending[static_cast<size_t>(decision.group)].pods);
      if (assignment.first_machine >= 0) {
        --budget;
      }
    }
    assignments.push_back(assignment);
  }
  return assignments;
}

}  // namespace rhythm
