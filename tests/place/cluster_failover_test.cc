// Cluster failure domains (DESIGN.md §14): machine-loss injection through
// ClusterRunRequest::faults, barrier-driven failover by the
// ClusterSupervisor, cluster-scope invariants, and the determinism contract
// under failure — a seeded run that loses machines mid-epoch is bit-identical
// at any shard count, with and without the supervisor.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/control/machine_agent.h"
#include "src/place/cluster_engine.h"
#include "src/verify/cluster_fuzzer.h"

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

ClusterRunRequest SmallRequest(uint64_t seed = 11) {
  ClusterRunRequest request;
  request.spec.machines = 12;
  request.spec.lc_demand = {
      {LcAppKind::kEcommerce, 1, 0.45},
      {LcAppKind::kRedis, 2, 0.60},
      {LcAppKind::kSolr, 1, 0.35},
  };
  request.spec.be_backlog = {
      {BeJobKind::kCpuStress, 2.0},
      {BeJobKind::kWordcount, 1.0},
  };
  request.policy = kPolicyRhythmAware;
  request.seed = seed;
  request.warmup_s = 2.0;
  request.measure_s = 10.0;
  request.model_provider = StubModel;
  return request;
}

std::shared_ptr<const FaultSchedule> Schedule(
    std::vector<FaultEvent> events) {
  FaultSchedule schedule;
  for (const FaultEvent& event : events) {
    schedule.Add(event);
  }
  return std::make_shared<FaultSchedule>(std::move(schedule));
}

ClusterSummary RunAtShards(const ClusterRunRequest& request, int shards) {
  RunnerOptions options;
  options.shards = shards;
  return RunCluster(request, options);
}

// The machine a running group actually occupies: losing it is guaranteed to
// disrupt someone regardless of how the policy laid the cluster out.
int FirstOccupiedMachine(const ClusterRunRequest& base) {
  ClusterRunRequest probe = base;
  probe.faults = nullptr;
  const ClusterSummary summary = RunCluster(probe);
  for (const GroupOutcome& outcome : summary.groups) {
    if (outcome.placed && outcome.first_machine >= 0) {
      return outcome.first_machine;
    }
  }
  return -1;
}

void ExpectBitIdentical(const ClusterSummary& a, const ClusterSummary& b) {
  EXPECT_EQ(a.emu, b.emu);
  EXPECT_EQ(a.lc_throughput, b.lc_throughput);
  EXPECT_EQ(a.be_throughput, b.be_throughput);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.be_kills, b.be_kills);
  EXPECT_EQ(a.slo_violation_rate, b.slo_violation_rate);
  EXPECT_EQ(a.worst_tail_ratio, b.worst_tail_ratio);
  EXPECT_EQ(a.machines_failed, b.machines_failed);
  EXPECT_EQ(a.machines_restarted, b.machines_restarted);
  EXPECT_EQ(a.machines_down_end, b.machines_down_end);
  EXPECT_EQ(a.groups_disrupted, b.groups_disrupted);
  EXPECT_EQ(a.groups_failed_over, b.groups_failed_over);
  EXPECT_EQ(a.groups_lost, b.groups_lost);
  EXPECT_EQ(a.pods_migrated, b.pods_migrated);
  EXPECT_EQ(a.down_group_seconds, b.down_group_seconds);
  EXPECT_EQ(a.worst_failover_latency_s, b.worst_failover_latency_s);
  EXPECT_EQ(a.degraded_barriers, b.degraded_barriers);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t i = 0; i < a.groups.size(); ++i) {
    SCOPED_TRACE("group entry " + std::to_string(i));
    EXPECT_EQ(a.groups[i].epoch, b.groups[i].epoch);
    EXPECT_EQ(a.groups[i].group, b.groups[i].group);
    EXPECT_EQ(a.groups[i].incarnation, b.groups[i].incarnation);
    EXPECT_EQ(a.groups[i].first_machine, b.groups[i].first_machine);
    EXPECT_EQ(a.groups[i].start_s, b.groups[i].start_s);
    EXPECT_EQ(a.groups[i].served_measure_s, b.groups[i].served_measure_s);
    EXPECT_EQ(a.groups[i].disrupted, b.groups[i].disrupted);
    EXPECT_EQ(a.groups[i].summary.emu, b.groups[i].summary.emu);
    EXPECT_EQ(a.groups[i].summary.worst_tail_ms,
              b.groups[i].summary.worst_tail_ms);
    EXPECT_EQ(a.groups[i].summary.sla_violations,
              b.groups[i].summary.sla_violations);
    EXPECT_EQ(a.groups[i].summary.be_kills, b.groups[i].summary.be_kills);
  }
  ASSERT_EQ(a.recording.events.size(), b.recording.events.size());
  for (size_t i = 0; i < a.recording.events.size(); ++i) {
    EXPECT_EQ(a.recording.events[i].time_s, b.recording.events[i].time_s);
    EXPECT_EQ(a.recording.events[i].code, b.recording.events[i].code);
    EXPECT_EQ(a.recording.events[i].machine, b.recording.events[i].machine);
    EXPECT_EQ(a.recording.events[i].a, b.recording.events[i].a);
    EXPECT_EQ(a.recording.events[i].b, b.recording.events[i].b);
    EXPECT_EQ(a.recording.events[i].c, b.recording.events[i].c);
    EXPECT_EQ(a.recording.events[i].d, b.recording.events[i].d);
  }
}

int CountEvents(const ClusterSummary& summary, ObsPlacementOp op) {
  int count = 0;
  for (const ObsEvent& event : summary.recording.events) {
    if (static_cast<ObsPlacementOp>(event.code) == op) {
      ++count;
    }
  }
  return count;
}

TEST(ClusterFailoverTest, MachineLossIsBitIdenticalAtAnyShardCount) {
  // The acceptance bar: a seeded run that loses machines mid-epoch must be
  // bit-identical at any RHYTHM_SHARDS, with and without the supervisor.
  ClusterRunRequest request = SmallRequest();
  request.epochs = 2;
  const int victim = FirstOccupiedMachine(request);
  ASSERT_GE(victim, 0);
  request.faults = Schedule({
      {FaultKind::kMachineFailure, victim, 5.0, 0.0, 0.0},
      {FaultKind::kMachineRestart, (victim + 3) % 12, 5.0, 4.0, 0.0},
  });
  for (bool supervisor : {false, true}) {
    SCOPED_TRACE(supervisor ? "supervisor on" : "supervisor off");
    request.supervisor.enabled = supervisor;
    const ClusterSummary serial = RunAtShards(request, 1);
    EXPECT_GT(serial.machines_failed, 0);
    for (int shards : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      ExpectBitIdentical(serial, RunAtShards(request, shards));
    }
  }
}

TEST(ClusterFailoverTest, SupervisorIsInvisibleOnFaultFreeRuns) {
  ClusterRunRequest request = SmallRequest();
  request.epochs = 2;
  const ClusterSummary off = RunCluster(request);
  request.supervisor.enabled = true;
  const ClusterSummary on = RunCluster(request);
  ExpectBitIdentical(off, on);
  EXPECT_EQ(on.machines_failed, 0);
  EXPECT_EQ(on.groups_disrupted, 0);
  EXPECT_EQ(on.down_group_seconds, 0.0);
}

TEST(ClusterFailoverTest, SupervisorFailsOverVictimsAndAccountsForThem) {
  ClusterRunRequest request = SmallRequest();
  // Spare machines beyond the demand: failover needs somewhere to land (a
  // fully packed roster legitimately loses the victims instead).
  request.spec.machines = 18;
  const int victim = FirstOccupiedMachine(request);
  ASSERT_GE(victim, 0);
  request.faults =
      Schedule({{FaultKind::kMachineFailure, victim, 5.0, 0.0, 0.0}});

  // Supervisor off: the disruption goes unreplaced.
  const ClusterSummary off = RunCluster(request);
  EXPECT_EQ(off.machines_failed, 1);
  EXPECT_EQ(off.machines_down_end, 1);
  EXPECT_GT(off.groups_disrupted, 0);
  EXPECT_EQ(off.groups_failed_over, 0);
  EXPECT_EQ(off.groups_lost, off.groups_disrupted);
  EXPECT_GT(off.down_group_seconds, 0.0);
  EXPECT_GT(CountEvents(off, ObsPlacementOp::kMachineDown), 0);
  EXPECT_GT(CountEvents(off, ObsPlacementOp::kGroupDown), 0);
  EXPECT_EQ(CountEvents(off, ObsPlacementOp::kFailover), 0);

  // Supervisor on: the victim is re-placed onto surviving machines, and
  // conservation holds — every disruption is a failover or a loss.
  request.supervisor.enabled = true;
  const ClusterSummary on = RunCluster(request);
  EXPECT_EQ(on.machines_failed, 1);
  EXPECT_GT(on.groups_failed_over, 0);
  EXPECT_EQ(on.groups_disrupted, on.groups_failed_over + on.groups_lost);
  EXPECT_GT(on.pods_migrated, 0);
  EXPECT_LT(on.down_group_seconds, off.down_group_seconds);
  EXPECT_GT(CountEvents(on, ObsPlacementOp::kFailover), 0);

  // The loss scheduled at t=5 lands at the t=6 barrier: latency exactly 1 s,
  // inside the fail.latency bound.
  EXPECT_DOUBLE_EQ(on.worst_failover_latency_s, 1.0);

  // The replacement shows up as a later incarnation of the disrupted group,
  // serving the remainder of the window on a live machine.
  bool found_replacement = false;
  for (const GroupOutcome& outcome : on.groups) {
    if (outcome.incarnation == 0) {
      continue;
    }
    found_replacement = true;
    EXPECT_TRUE(outcome.placed);
    EXPECT_GE(outcome.first_machine, 0);
    EXPECT_NE(outcome.first_machine, victim);
    EXPECT_GT(outcome.start_s, 0.0);
    EXPECT_GT(outcome.served_measure_s, 0.0);
    EXPECT_LE(outcome.served_measure_s, request.measure_s);
  }
  EXPECT_TRUE(found_replacement);
}

// The request's model source is consulted once per app and cached: placing
// groups, building their trials and building failover replacements all read
// the same cached model, over two epochs with a machine loss.
TEST(ClusterFailoverTest, ModelProviderRunsAtMostOncePerApp) {
  ClusterRunRequest request = SmallRequest();
  request.spec.machines = 18;
  request.epochs = 2;
  const int victim = FirstOccupiedMachine(request);
  ASSERT_GE(victim, 0);
  request.faults =
      Schedule({{FaultKind::kMachineFailure, victim, 5.0, 0.0, 0.0}});
  request.supervisor.enabled = true;
  const ClusterSummary expected = RunCluster(request);

  auto calls = std::make_shared<std::map<LcAppKind, int>>();
  request.model_provider = [calls](LcAppKind app) {
    ++(*calls)[app];
    return StubModel(app);
  };
  const ClusterSummary counted = RunCluster(request);
  ASSERT_GT(counted.groups_failed_over, 0);
  EXPECT_EQ(calls->size(), request.spec.lc_demand.size());
  for (const auto& [app, count] : *calls) {
    EXPECT_EQ(count, 1) << LcAppKindName(app);
  }
  // Same model values, so the results are unchanged.
  EXPECT_EQ(counted.emu, expected.emu);
  EXPECT_EQ(counted.groups_failed_over, expected.groups_failed_over);
  ASSERT_EQ(counted.groups.size(), expected.groups.size());
  for (size_t i = 0; i < counted.groups.size(); ++i) {
    EXPECT_EQ(counted.groups[i].summary.emu, expected.groups[i].summary.emu);
  }
}

TEST(ClusterFailoverTest, RestartRejoinsTheMachine) {
  ClusterRunRequest request = SmallRequest();
  const int victim = FirstOccupiedMachine(request);
  ASSERT_GE(victim, 0);
  request.supervisor.enabled = true;
  // Down at the t=6 barrier, back at the t=10 barrier (loss 5 + downtime 4).
  request.faults =
      Schedule({{FaultKind::kMachineRestart, victim, 5.0, 4.0, 0.0}});
  const ClusterSummary summary = RunCluster(request);
  EXPECT_EQ(summary.machines_failed, 1);
  EXPECT_EQ(summary.machines_restarted, 1);
  EXPECT_EQ(summary.machines_down_end, 0);
  EXPECT_GT(CountEvents(summary, ObsPlacementOp::kMachineDown), 0);
  EXPECT_EQ(CountEvents(summary, ObsPlacementOp::kMachineUp), 1);
}

TEST(ClusterFailoverTest, DegradedModeSuspendsBeClusterWide) {
  ClusterRunRequest request = SmallRequest();
  request.epochs = 2;
  request.supervisor.enabled = true;
  request.supervisor.degraded_dead_fraction = 0.5;
  // Lose half the roster mid-epoch-0: dead fraction hits the threshold, so
  // every epoch-1 placement must run solo until machines rejoin (none do).
  std::vector<FaultEvent> losses;
  for (int machine = 0; machine < 6; ++machine) {
    losses.push_back({FaultKind::kMachineFailure, machine, 5.0, 0.0, 0.0});
  }
  request.faults = Schedule(losses);
  const ClusterSummary summary = RunCluster(request);
  EXPECT_EQ(summary.machines_failed, 6);
  EXPECT_GT(summary.degraded_barriers, 0);
  EXPECT_GT(CountEvents(summary, ObsPlacementOp::kDegraded), 0);
  for (const GroupOutcome& outcome : summary.groups) {
    if (outcome.epoch == 1 && outcome.placed) {
      EXPECT_TRUE(outcome.run_solo)
          << "group " << outcome.group << " co-located BE in degraded mode";
    }
  }
}

TEST(ClusterFailoverTest, ClusterInvariantsHoldUnderLossAndFailover) {
  ClusterRunRequest request = SmallRequest();
  request.epochs = 2;
  request.supervisor.enabled = true;
  request.verify.mode = InvariantMode::kCollect;
  const int victim = FirstOccupiedMachine(request);
  ASSERT_GE(victim, 0);
  request.faults = Schedule({
      {FaultKind::kMachineFailure, victim, 5.0, 0.0, 0.0},
      {FaultKind::kMachineRestart, (victim + 5) % 12, 3.0, 6.0, 0.0},
  });
  const ClusterSummary summary = RunCluster(request);
  EXPECT_EQ(summary.cluster_invariant_violations_total, 0u)
      << (summary.cluster_invariant_violations.empty()
              ? ""
              : summary.cluster_invariant_violations.front().detail);

  // And kFailFast agrees: the run completes without throwing.
  request.verify.mode = InvariantMode::kFailFast;
  EXPECT_NO_THROW(RunCluster(request));
}

TEST(ClusterFailoverTest, PerDeploymentKindsAreRejectedOnClusterRequests) {
  ClusterRunRequest request = SmallRequest();
  request.faults = Schedule({{FaultKind::kPodCrash, 0, 5.0, 10.0, 0.3}});
  try {
    RunCluster(request);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("per-deployment"),
              std::string::npos);
  }
}

TEST(ClusterFailoverTest, OutOfRangeMachineIndicesAreRejected) {
  ClusterRunRequest request = SmallRequest();
  request.faults =
      Schedule({{FaultKind::kMachineFailure, 12, 5.0, 0.0, 0.0}});
  EXPECT_THROW(RunCluster(request), std::invalid_argument);
  request.faults =
      Schedule({{FaultKind::kMachineRestart, -1, 5.0, 4.0, 0.0}});
  EXPECT_THROW(RunCluster(request), std::invalid_argument);
  // A restart without a downtime window is a typo, not a schedule.
  request.faults =
      Schedule({{FaultKind::kMachineRestart, 0, 5.0, 0.0, 0.0}});
  EXPECT_THROW(RunCluster(request), std::invalid_argument);
}

// -- Satellite: ClusterTickSnapshot merge determinism under failure --

std::string SnapshotBytes(const std::vector<ClusterTickSnapshot>& snaps) {
  std::string text;
  char buffer[256];
  for (const ClusterTickSnapshot& snap : snaps) {
    std::snprintf(buffer, sizeof(buffer),
                  "t=%.17g e=%d w=%llu end=%.17g run=%d sla=%llu kills=%llu "
                  "slack=%llu total=%d alive=%d down=%d gdown=%d deg=%d",
                  snap.time_s, snap.epoch, (unsigned long long)snap.window,
                  snap.window_end_s, snap.groups_running,
                  (unsigned long long)snap.sla_violations,
                  (unsigned long long)snap.be_kills,
                  (unsigned long long)snap.slack_violation_ticks,
                  snap.machines_total, snap.machines_alive, snap.machines_down,
                  snap.groups_down, snap.degraded ? 1 : 0);
    text += buffer;
    text += " lost=[";
    for (int machine : snap.lost_machines) {
      text += std::to_string(machine) + ",";
    }
    text += "] rejoined=[";
    for (int machine : snap.rejoined_machines) {
      text += std::to_string(machine) + ",";
    }
    text += "]\n";
  }
  return text;
}

TEST(ClusterFailoverTest, SnapshotStreamIsByteIdenticalAcrossShardCounts) {
  ClusterRunRequest request = SmallRequest();
  request.epochs = 2;
  request.supervisor.enabled = true;
  const int victim = FirstOccupiedMachine(request);
  ASSERT_GE(victim, 0);
  request.faults = Schedule({
      {FaultKind::kMachineFailure, victim, 5.0, 0.0, 0.0},
      {FaultKind::kMachineRestart, (victim + 3) % 12, 7.0, 4.0, 0.0},
  });

  std::vector<ClusterTickSnapshot> serial_snaps;
  request.on_tick = [&serial_snaps](const ClusterTickSnapshot& snap) {
    serial_snaps.push_back(snap);
  };
  RunAtShards(request, 1);
  std::vector<ClusterTickSnapshot> sharded_snaps;
  request.on_tick = [&sharded_snaps](const ClusterTickSnapshot& snap) {
    sharded_snaps.push_back(snap);
  };
  RunAtShards(request, 4);

  ASSERT_FALSE(serial_snaps.empty());
  EXPECT_EQ(SnapshotBytes(serial_snaps), SnapshotBytes(sharded_snaps));

  // The loss barrier is visible in the stream: some snapshot names the
  // victim, and machine counts account for every transition.
  bool saw_loss = false;
  for (const ClusterTickSnapshot& snap : serial_snaps) {
    EXPECT_EQ(snap.machines_total, 12);
    EXPECT_EQ(snap.machines_alive + snap.machines_down, snap.machines_total);
    for (int machine : snap.lost_machines) {
      saw_loss = saw_loss || machine == victim;
    }
  }
  EXPECT_TRUE(saw_loss);
}

// -- Satellite: machine-loss fuzzing against cluster runs --

TEST(ClusterFuzzTest, TrialRequestsAreDeterministicAndMachineLossOnly) {
  ClusterFuzzOptions options;
  options.machines = 24;
  options.epochs = 1;
  const ClusterRunRequest a = ClusterFuzzTrialRequest(options, 3);
  const ClusterRunRequest b = ClusterFuzzTrialRequest(options, 3);
  ASSERT_NE(a.faults, nullptr);
  ASSERT_EQ(a.faults->events.size(), b.faults->events.size());
  for (size_t i = 0; i < a.faults->events.size(); ++i) {
    EXPECT_TRUE(IsClusterScopeFault(a.faults->events[i].kind));
    EXPECT_EQ(a.faults->events[i].pod, b.faults->events[i].pod);
    EXPECT_EQ(a.faults->events[i].start_s, b.faults->events[i].start_s);
  }
  EXPECT_EQ(a.seed, b.seed);
  // Different trials draw different schedules or seeds.
  const ClusterRunRequest c = ClusterFuzzTrialRequest(options, 4);
  EXPECT_NE(a.seed, c.seed);
}

TEST(ClusterFuzzTest, SmallSweepRunsCleanAndDeterministically) {
  ClusterFuzzOptions options;
  options.trials = 2;
  options.machines = 24;
  options.epochs = 1;
  options.warmup_s = 2.0;
  options.measure_s = 10.0;
  const ClusterFuzzReport report = FuzzClusterChaos(options);
  EXPECT_EQ(report.trials_run, 2);
  EXPECT_TRUE(report.clean())
      << report.findings.front().violations.front().detail;
  const ClusterFuzzReport again = FuzzClusterChaos(options);
  EXPECT_EQ(again.trials_run, report.trials_run);
  EXPECT_EQ(again.violating_trials, report.violating_trials);
}

}  // namespace
}  // namespace rhythm
