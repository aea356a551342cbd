// Golden pins for the placement round: the cluster runs whose placement goes
// through epoch placement, failover under a migration budget, degraded mode
// and the supervisor-off loss path, plus the exact /v1/placements bytes.
// Every ClusterSummary scalar is pinned as a hexfloat, the per-group
// outcomes and the placement event stream as FNV-1a digests over their
// fields, each at 1 and at 4 shards. The constants were captured from the
// engine before the placement round was factored out of it (one copy of the
// decision contract and of first-fit allocation, shared by epoch placement,
// failover and /v1/placements); a refactor of the round must leave them
// unchanged. On a mismatch the test prints the whole actual pin.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/place/cluster_engine.h"
#include "src/serve/whatif.h"

namespace rhythm {
namespace {

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

ClusterRunRequest BaseRequest(int machines) {
  ClusterRunRequest request;
  request.spec.machines = machines;
  request.spec.lc_demand = {
      {LcAppKind::kEcommerce, 1, 0.45},
      {LcAppKind::kRedis, 2, 0.70},
      {LcAppKind::kSolr, 1, 0.35},
  };
  request.spec.be_backlog = {
      {BeJobKind::kCpuStress, 2.0},
      {BeJobKind::kWordcount, 1.0},
  };
  request.policy = kPolicyGreedy;
  request.seed = 11;
  request.warmup_s = 2.0;
  request.measure_s = 10.0;
  request.epochs = 2;
  request.epoch_load_scale = {1.0, 1.5};
  request.model_provider = StubModel;
  return request;
}

std::shared_ptr<const FaultSchedule> Schedule(std::vector<FaultEvent> events) {
  auto schedule = std::make_shared<FaultSchedule>();
  for (const FaultEvent& event : events) {
    schedule->Add(event);
  }
  return schedule;
}

// Two groups lose a machine at the t=6 barrier (one for good, one for a
// 4 s restart); with a budget of one migration, one victim is failed over
// and the other is lost.
ClusterRunRequest BudgetRequest(bool supervisor) {
  ClusterRunRequest request = BaseRequest(18);
  request.faults = Schedule({
      {FaultKind::kMachineFailure, 0, 5.0, 0.0, 0.0},
      {FaultKind::kMachineRestart, 4, 5.0, 4.0, 0.0},
  });
  request.supervisor.enabled = supervisor;
  request.supervisor.migration_budget = 1;
  return request;
}

// Half the roster dies mid-epoch 0: the dead fraction reaches the degraded
// threshold and epoch 1 places every group solo.
ClusterRunRequest DegradedRequest() {
  ClusterRunRequest request = BaseRequest(12);
  std::vector<FaultEvent> losses;
  for (int machine = 0; machine < 6; ++machine) {
    losses.push_back({FaultKind::kMachineFailure, machine, 5.0, 0.0, 0.0});
  }
  request.faults = Schedule(losses);
  request.supervisor.enabled = true;
  request.supervisor.degraded_dead_fraction = 0.5;
  return request;
}

class Fnv {
 public:
  template <typename T>
  Fnv& Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv& Add(const std::string& text) {
    for (char c : text) {
      Add(c);
    }
    return *this;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void Line(std::string& out, const char* name, double value) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s=%a\n", name, value);
  out += buffer;
}

void Line(std::string& out, const char* name, uint64_t value) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s=%" PRIu64 "\n", name, value);
  out += buffer;
}

void Line(std::string& out, const char* name, int value) {
  Line(out, name, static_cast<uint64_t>(static_cast<int64_t>(value)));
}

std::string Pin(const ClusterSummary& s) {
  std::string out;
  Line(out, "machines", s.machines);
  Line(out, "machines_used", s.machines_used);
  Line(out, "epochs", s.epochs);
  Line(out, "groups_total", s.groups_total);
  Line(out, "groups_placed", s.groups_placed);
  Line(out, "groups_unplaced", s.groups_unplaced);
  Line(out, "solo_groups", s.solo_groups);
  Line(out, "emu", s.emu);
  Line(out, "lc_throughput", s.lc_throughput);
  Line(out, "be_throughput", s.be_throughput);
  Line(out, "cpu_util", s.cpu_util);
  Line(out, "membw_util", s.membw_util);
  Line(out, "sla_violations", s.sla_violations);
  Line(out, "be_kills", s.be_kills);
  Line(out, "slo_violation_rate", s.slo_violation_rate);
  Line(out, "worst_tail_ratio", s.worst_tail_ratio);
  Line(out, "placement_churn", s.placement_churn);
  Line(out, "machines_failed", s.machines_failed);
  Line(out, "machines_restarted", s.machines_restarted);
  Line(out, "machines_down_end", s.machines_down_end);
  Line(out, "groups_disrupted", s.groups_disrupted);
  Line(out, "groups_failed_over", s.groups_failed_over);
  Line(out, "groups_lost", s.groups_lost);
  Line(out, "pods_migrated", s.pods_migrated);
  Line(out, "down_group_seconds", s.down_group_seconds);
  Line(out, "worst_failover_latency_s", s.worst_failover_latency_s);
  Line(out, "degraded_barriers", s.degraded_barriers);
  Line(out, "cluster_invariant_violations_total",
       s.cluster_invariant_violations_total);
  for (const AppClusterStats& app : s.per_app) {
    out += std::string("app ") + LcAppKindName(app.app) + "\n";
    Line(out, " trials", app.trials);
    Line(out, " unplaced", app.unplaced);
    Line(out, " emu", app.emu);
    Line(out, " lc_throughput", app.lc_throughput);
    Line(out, " sla_violations", app.sla_violations);
    Line(out, " slo_violation_rate", app.slo_violation_rate);
    Line(out, " worst_tail_ratio", app.worst_tail_ratio);
  }

  Fnv groups;
  for (const GroupOutcome& g : s.groups) {
    groups.Add(g.epoch).Add(g.group).Add(g.app).Add(g.be).Add(g.placed);
    groups.Add(g.run_solo).Add(g.first_machine).Add(g.pods).Add(g.load);
    groups.Add(g.score).Add(g.incarnation).Add(g.start_s);
    groups.Add(g.served_measure_s).Add(g.disrupted);
    groups.Add(g.summary.emu).Add(g.summary.lc_throughput);
    groups.Add(g.summary.be_throughput).Add(g.summary.cpu_util);
    groups.Add(g.summary.membw_util).Add(g.summary.worst_tail_ms);
    groups.Add(g.summary.worst_tail_ratio).Add(g.summary.sla_violations);
    groups.Add(g.summary.be_kills);
  }
  Line(out, "groups", static_cast<uint64_t>(s.groups.size()));
  Line(out, "groups_fnv", groups.value());

  Fnv events;
  for (const ObsEvent& e : s.recording.events) {
    events.Add(e.time_s).Add(e.machine).Add(e.kind).Add(e.code);
    events.Add(e.detail).Add(e.a).Add(e.b).Add(e.c).Add(e.d);
  }
  Line(out, "events", static_cast<uint64_t>(s.recording.events.size()));
  Line(out, "events_fnv", events.value());
  return out;
}

void ExpectPinnedAtShards(const ClusterRunRequest& request,
                          const std::string& expected) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunnerOptions options;
    options.shards = shards;
    EXPECT_EQ(Pin(RunCluster(request, options)), expected);
  }
}

TEST(PlacementRoundGoldenTest, BudgetLosesOneVictimWithSupervisorOn) {
  ExpectPinnedAtShards(BudgetRequest(/*supervisor=*/true),
      "machines=18\n"
      "machines_used=11\n"
      "epochs=2\n"
      "groups_total=8\n"
      "groups_placed=8\n"
      "groups_unplaced=0\n"
      "solo_groups=0\n"
      "emu=0x1.678b302a7a1f1p-2\n"
      "lc_throughput=0x1.4c83fb72ea61dp-2\n"
      "be_throughput=0x1.b0734b78fbd4p-6\n"
      "cpu_util=0x1.03357f6418fc2p-4\n"
      "membw_util=0x1.62cb3b7e3e25ep-4\n"
      "sla_violations=10\n"
      "be_kills=0\n"
      "slo_violation_rate=0x1.dc47711dc4771p-4\n"
      "worst_tail_ratio=0x1.8d137ad9a72f6p+0\n"
      "placement_churn=0\n"
      "machines_failed=2\n"
      "machines_restarted=1\n"
      "machines_down_end=1\n"
      "groups_disrupted=2\n"
      "groups_failed_over=1\n"
      "groups_lost=1\n"
      "pods_migrated=2\n"
      "down_group_seconds=0x1p+3\n"
      "worst_failover_latency_s=0x1p+0\n"
      "degraded_barriers=0\n"
      "cluster_invariant_violations_total=0\n"
      "app E-commerce\n"
      " trials=2\n"
      " unplaced=0\n"
      " emu=0x1.4e2be2be2be2cp-1\n"
      " lc_throughput=0x1.38af8af8af8bp-1\n"
      " sla_violations=0\n"
      " slo_violation_rate=0x0p+0\n"
      " worst_tail_ratio=0x1.4d8cb965eaf89p-1\n"
      "app Redis\n"
      " trials=5\n"
      " unplaced=0\n"
      " emu=0x1.c0d79435e50d8p-1\n"
      " lc_throughput=0x1.b73dfa9c4b73ep-1\n"
      " sla_violations=10\n"
      " slo_violation_rate=0x1.0d79435e50d79p-2\n"
      " worst_tail_ratio=0x1.8d137ad9a72f6p+0\n"
      "app Solr\n"
      " trials=2\n"
      " unplaced=0\n"
      " emu=0x1.294e81b4e81b5p-1\n"
      " lc_throughput=0x1.cp-2\n"
      " sla_violations=0\n"
      " slo_violation_rate=0x0p+0\n"
      " worst_tail_ratio=0x1.e2c1528533bcdp-2\n"
      "groups=9\n"
      "groups_fnv=2018038531597956126\n"
      "events=15\n"
      "events_fnv=4488182261647009242\n");
}

TEST(PlacementRoundGoldenTest, DegradedModeCrossesTheDeadFraction) {
  ExpectPinnedAtShards(DegradedRequest(),
      "machines=12\n"
      "machines_used=12\n"
      "epochs=2\n"
      "groups_total=8\n"
      "groups_placed=7\n"
      "groups_unplaced=1\n"
      "solo_groups=3\n"
      "emu=0x1.84f6e5d4c3b2ap-2\n"
      "lc_throughput=0x1.73a06d3a06d3ap-2\n"
      "be_throughput=0x1.156789abcdf02p-6\n"
      "cpu_util=0x1.0e3d9b373daa8p-4\n"
      "membw_util=0x1.a3ac901e573acp-4\n"
      "sla_violations=10\n"
      "be_kills=0\n"
      "slo_violation_rate=0x1.4p-3\n"
      "worst_tail_ratio=0x1.8d137ad9a72f6p+0\n"
      "placement_churn=4\n"
      "machines_failed=6\n"
      "machines_restarted=0\n"
      "machines_down_end=6\n"
      "groups_disrupted=3\n"
      "groups_failed_over=2\n"
      "groups_lost=1\n"
      "pods_migrated=4\n"
      "down_group_seconds=0x1.4p+3\n"
      "worst_failover_latency_s=0x1p+0\n"
      "degraded_barriers=10\n"
      "cluster_invariant_violations_total=0\n"
      "app E-commerce\n"
      " trials=1\n"
      " unplaced=1\n"
      " emu=0x1.f333333333334p-2\n"
      " lc_throughput=0x1.ccccccccccccdp-2\n"
      " sla_violations=0\n"
      " slo_violation_rate=0x0p+0\n"
      " worst_tail_ratio=0x1.f501334e0a94fp-2\n"
      "app Redis\n"
      " trials=6\n"
      " unplaced=0\n"
      " emu=0x1.cp-1\n"
      " lc_throughput=0x1.bbbbbbbbbbbbcp-1\n"
      " sla_violations=10\n"
      " slo_violation_rate=0x1.1c71c71c71c72p-2\n"
      " worst_tail_ratio=0x1.8d137ad9a72f6p+0\n"
      "app Solr\n"
      " trials=2\n"
      " unplaced=0\n"
      " emu=0x1.04a740da740dbp-1\n"
      " lc_throughput=0x1.cp-2\n"
      " sla_violations=0\n"
      " slo_violation_rate=0x0p+0\n"
      " worst_tail_ratio=0x1.d90f241eafab2p-2\n"
      "groups=10\n"
      "groups_fnv=13294933449849856237\n"
      "events=24\n"
      "events_fnv=6928088862230207595\n");
}

TEST(PlacementRoundGoldenTest, SupervisorOffLosesEveryVictim) {
  ExpectPinnedAtShards(BudgetRequest(/*supervisor=*/false),
      "machines=18\n"
      "machines_used=11\n"
      "epochs=2\n"
      "groups_total=8\n"
      "groups_placed=8\n"
      "groups_unplaced=0\n"
      "solo_groups=0\n"
      "emu=0x1.579d6480f2b9dp-2\n"
      "lc_throughput=0x1.3c962fc962fc9p-2\n"
      "be_throughput=0x1.b0734b78fbd4p-6\n"
      "cpu_util=0x1.f3186bb02e535p-5\n"
      "membw_util=0x1.4fade0b2cedf9p-4\n"
      "sla_violations=10\n"
      "be_kills=0\n"
      "slo_violation_rate=0x1.f3831f3831f38p-4\n"
      "worst_tail_ratio=0x1.8d137ad9a72f6p+0\n"
      "placement_churn=0\n"
      "machines_failed=2\n"
      "machines_restarted=1\n"
      "machines_down_end=1\n"
      "groups_disrupted=2\n"
      "groups_failed_over=0\n"
      "groups_lost=2\n"
      "pods_migrated=0\n"
      "down_group_seconds=0x1.8p+3\n"
      "worst_failover_latency_s=0x1p+0\n"
      "degraded_barriers=0\n"
      "cluster_invariant_violations_total=0\n"
      "app E-commerce\n"
      " trials=2\n"
      " unplaced=0\n"
      " emu=0x1.4e2be2be2be2cp-1\n"
      " lc_throughput=0x1.38af8af8af8bp-1\n"
      " sla_violations=0\n"
      " slo_violation_rate=0x0p+0\n"
      " worst_tail_ratio=0x1.4d8cb965eaf89p-1\n"
      "app Redis\n"
      " trials=4\n"
      " unplaced=0\n"
      " emu=0x1.cb7b7b7b7b7b8p-1\n"
      " lc_throughput=0x1.c0c0c0c0c0c0cp-1\n"
      " sla_violations=10\n"
      " slo_violation_rate=0x1.2d2d2d2d2d2d3p-2\n"
      " worst_tail_ratio=0x1.8d137ad9a72f6p+0\n"
      "app Solr\n"
      " trials=2\n"
      " unplaced=0\n"
      " emu=0x1.294e81b4e81b5p-1\n"
      " lc_throughput=0x1.cp-2\n"
      " sla_violations=0\n"
      " slo_violation_rate=0x0p+0\n"
      " worst_tail_ratio=0x1.e2c1528533bcdp-2\n"
      "groups=8\n"
      "groups_fnv=17226469164523887119\n"
      "events=15\n"
      "events_fnv=9101770203783990726\n");
}

std::string PlacementsPin(const std::string& body_text) {
  JsonValue body;
  std::string error;
  EXPECT_TRUE(ParseJson(body_text, &body, &error)) << error;
  const std::string response = PlacementsResponseJson(body);
  std::string out;
  Line(out, "bytes", static_cast<uint64_t>(response.size()));
  Line(out, "fnv", Fnv().Add(response).value());
  return out;
}

// The built-in policies are named explicitly so that a policy another test
// registers in the same process cannot join the sweep; the response bytes
// are those of the default policy list.
TEST(PlacementRoundGoldenTest, PlacementsBytesForTheDefaultSpec) {
  EXPECT_EQ(PlacementsPin("{\"policies\":[\"bin-packing\","
                          "\"greedy-interference\",\"random\","
                          "\"rhythm-aware\"]}"),
            "bytes=5838\n"
            "fnv=17428927904249163202\n");
}

TEST(PlacementRoundGoldenTest, PlacementsBytesForASyntheticCluster) {
  EXPECT_EQ(PlacementsPin("{\"synthetic\":true,\"machines\":200,"
                          "\"policies\":[\"bin-packing\","
                          "\"greedy-interference\",\"random\","
                          "\"rhythm-aware\"]}"),
            "bytes=52099\n"
            "fnv=2836446972874120428\n");
}

}  // namespace
}  // namespace rhythm
