// One decision contract for every placement round: a policy answer that is
// short, decides a group twice, or overdraws the BE quota is rejected the
// same way at epoch placement, at failover, and by /v1/placements (422).
//
// The breaching policies wrap a built-in one and break exactly one rule,
// either on every view or only on the views after the first (in a one-epoch
// run, the failover's victim views). They live in their own test binary so
// that no other test's policy sweep sees them.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/place/cluster_engine.h"
#include "src/serve/daemon.h"
#include "tests/serve/http_client.h"

namespace rhythm {
namespace {

enum class Breach { kShort, kDuplicate, kOverdraw };

constexpr Breach kBreaches[] = {Breach::kShort, Breach::kDuplicate,
                                Breach::kOverdraw};

std::string BreachName(Breach breach, bool failover_only) {
  const char* rule = breach == Breach::kShort       ? "short"
                     : breach == Breach::kDuplicate ? "duplicate"
                                                    : "overdraw";
  return std::string("breach-") + rule + (failover_only ? "-on-failover" : "");
}

// A BE kind the quota does not hold: drawing it overdraws at once.
BeJobKind AbsentFrom(const std::vector<BeJobKind>& quota) {
  for (int k = 0; k <= static_cast<int>(BeJobKind::kLstm); ++k) {
    const BeJobKind kind = static_cast<BeJobKind>(k);
    if (std::find(quota.begin(), quota.end(), kind) == quota.end()) {
      return kind;
    }
  }
  ADD_FAILURE() << "the quota holds every BE kind";
  return BeJobKind::kCpuStress;
}

class BreachingPolicy final : public PlacementPolicy {
 public:
  BreachingPolicy(Breach breach, bool failover_only, uint64_t seed)
      : name_(BreachName(breach, failover_only)),
        breach_(breach),
        failover_only_(failover_only),
        inner_(MakePlacementPolicy(kPolicyGreedy, seed)) {}

  const std::string& name() const override { return name_; }

  void OnTick(const ClusterView& view) override { inner_->OnTick(view); }

  std::vector<PlacementDecision> Decide(const ClusterView& view) override {
    std::vector<PlacementDecision> decisions = inner_->Decide(view);
    // One-epoch runs: the first view is the epoch's, every later one a
    // failover's victim view.
    if (failover_only_ && views_seen_++ == 0) {
      return decisions;
    }
    switch (breach_) {
      case Breach::kShort:
        decisions.pop_back();
        break;
      case Breach::kDuplicate:
        decisions.back().group = decisions.front().group;
        break;
      case Breach::kOverdraw:
        for (PlacementDecision& decision : decisions) {
          decision.run_solo = false;
          decision.be = AbsentFrom(view.be_quota);
        }
        break;
    }
    return decisions;
  }

 private:
  std::string name_;
  Breach breach_;
  bool failover_only_;
  int views_seen_ = 0;
  std::unique_ptr<PlacementPolicy> inner_;
};

void RegisterBreachingPolicies() {
  for (Breach breach : kBreaches) {
    for (bool failover_only : {false, true}) {
      RegisterPlacementPolicy(
          BreachName(breach, failover_only),
          [breach, failover_only](uint64_t seed) {
            return std::make_unique<BreachingPolicy>(breach, failover_only,
                                                     seed);
          });
    }
  }
}

AppPlacementModel StubModel(LcAppKind app) {
  const AppSpec spec = MakeApp(app);
  AppPlacementModel model;
  model.app = app;
  for (size_t pod = 0; pod < spec.components.size(); ++pod) {
    PodPlacementModel entry;
    entry.name = spec.components[pod].name;
    entry.sensitivity = spec.components[pod].sensitivity;
    entry.thresholds = ServpodThresholds{0.8 - 0.05 * pod, 0.10 + 0.02 * pod};
    entry.contribution = 1.0;
    model.pods.push_back(entry);
  }
  return model;
}

// Four groups on ten of eighteen machines. Epoch placement packs them onto
// machines 0-9 whatever the policy's order, so losing those ten machines
// makes every group a victim: the failover view holds four.
ClusterRunRequest FailoverRequest(const std::string& policy) {
  ClusterRunRequest request;
  request.spec.machines = 18;
  request.spec.lc_demand = {
      {LcAppKind::kEcommerce, 1, 0.45},
      {LcAppKind::kRedis, 2, 0.60},
      {LcAppKind::kSolr, 1, 0.35},
  };
  request.spec.be_backlog = {
      {BeJobKind::kCpuStress, 2.0},
      {BeJobKind::kWordcount, 1.0},
  };
  request.policy = policy;
  request.warmup_s = 2.0;
  request.measure_s = 10.0;
  request.model_provider = StubModel;
  auto faults = std::make_shared<FaultSchedule>();
  for (int machine = 0; machine < 10; ++machine) {
    faults->Add({FaultKind::kMachineFailure, machine, 5.0, 0.0, 0.0});
  }
  request.faults = faults;
  request.supervisor.enabled = true;
  return request;
}

TEST(PlacementContractTest, TheScenarioFailsOverEveryGroup) {
  const ClusterSummary summary = RunCluster(FailoverRequest(kPolicyGreedy));
  EXPECT_EQ(summary.groups_disrupted, 4);
  EXPECT_GT(summary.groups_failed_over, 0);
}

TEST(PlacementContractTest, EpochPlacementRejectsEachBreach) {
  RegisterBreachingPolicies();
  for (Breach breach : kBreaches) {
    const std::string name = BreachName(breach, /*failover_only=*/false);
    SCOPED_TRACE(name);
    ClusterRunRequest request = FailoverRequest(name);
    request.faults = nullptr;
    EXPECT_THROW(RunCluster(request), std::invalid_argument);
  }
}

TEST(PlacementContractTest, FailoverRejectsEachBreachOnTheVictimView) {
  RegisterBreachingPolicies();
  for (Breach breach : kBreaches) {
    const std::string name = BreachName(breach, /*failover_only=*/true);
    SCOPED_TRACE(name);
    ClusterRunRequest request = FailoverRequest(name);
    // The policy behaves at epoch placement: without a loss the run is clean.
    ClusterRunRequest fault_free = request;
    fault_free.faults = nullptr;
    EXPECT_NO_THROW(RunCluster(fault_free));
    EXPECT_THROW(RunCluster(request), std::invalid_argument);
  }
}

TEST(PlacementContractTest, PlacementsEndpointAnswers422ForEachBreach) {
  RegisterBreachingPolicies();
  DaemonOptions options;
  options.server.port = 0;
  options.server.threads = 1;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  for (Breach breach : kBreaches) {
    const std::string name = BreachName(breach, /*failover_only=*/false);
    SCOPED_TRACE(name);
    const testing::TestResponse response =
        testing::Fetch(daemon.port(), "POST", "/v1/placements",
                       "{\"machines\":16,\"policies\":[\"" + name + "\"]}");
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.status, 422) << response.body;
  }
  daemon.Stop();
}

}  // namespace
}  // namespace rhythm
