// Integration: the full tracer pipeline against events synthesized by the
// LC service model — the §3.3 claim that mean-based extraction matches the
// ground truth even with noise, and that the CPG builder reconstructs
// per-request structure.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/cpg_builder.h"
#include "src/trace/event_log.h"
#include "src/trace/sojourn_extractor.h"
#include "src/workload/lc_service.h"

namespace rhythm {
namespace {

struct TraceRun {
  EventLog log;
  std::vector<double> true_mean_ms;  // ground truth from direct recording.
  uint64_t requests = 0;
  std::vector<double> visits;
};

TraceRun RunTraced(LcAppKind kind, double load, bool persistent_tcp, double noise) {
  TraceRun run;
  Simulator sim;
  LcService::Config config;
  config.seed = 21;
  config.record_sojourns = true;
  config.sink = &run.log;
  config.noise_events_per_request = noise;
  config.persistent_tcp = persistent_tcp;
  const AppSpec app = MakeApp(kind);
  LcService service(&sim, app, config);
  ConstantLoad profile(load);
  service.SetLoadProfile(&profile);
  service.Start();
  sim.RunUntil(40.0);
  run.requests = service.completed_requests();
  run.visits = app.VisitCounts();
  for (int pod = 0; pod < app.pod_count(); ++pod) {
    run.true_mean_ms.push_back(service.PodSojournStats(pod).mean());
  }
  return run;
}

TEST(TracerIntegrationTest, MeanSojournsMatchGroundTruthWithNoise) {
  TraceRun run = RunTraced(LcAppKind::kEcommerce, 0.3, false, 1.0);
  const TracerConfig config{.program_base = 100, .num_pods = 4};
  const SojournSummary summary = ExtractMeanSojourns(run.log.events(), config);
  EXPECT_EQ(summary.requests, run.requests);
  EXPECT_GT(summary.noise_filtered, 0u);
  for (int pod = 0; pod < 4; ++pod) {
    // Tracer reports per-visit means; every pod is visited once per request
    // in the E-commerce chain.
    EXPECT_NEAR(summary.mean_sojourn_s[pod] * 1000.0, run.true_mean_ms[pod],
                run.true_mean_ms[pod] * 0.02 + 0.01)
        << "pod " << pod;
  }
}

TEST(TracerIntegrationTest, PersistentTcpMeanStillCorrect) {
  // Persistent connections make message identifiers collide across
  // concurrent requests; §3.3 argues mean-based extraction is immune.
  TraceRun run = RunTraced(LcAppKind::kEcommerce, 0.5, true, 0.0);
  const TracerConfig config{.program_base = 100, .num_pods = 4};
  const SojournSummary summary = ExtractMeanSojourns(run.log.events(), config);
  for (int pod = 0; pod < 4; ++pod) {
    EXPECT_NEAR(summary.mean_sojourn_s[pod] * 1000.0, run.true_mean_ms[pod],
                run.true_mean_ms[pod] * 0.02 + 0.01)
        << "pod " << pod;
  }
}

TEST(TracerIntegrationTest, FanOutVisitsCounted) {
  TraceRun run = RunTraced(LcAppKind::kRedis, 0.3, false, 0.0);
  const TracerConfig config{.program_base = 100, .num_pods = 2};
  const SojournSummary summary = ExtractMeanSojourns(run.log.events(), config);
  // Redis fans out to two Slave shards: two visits per request.
  EXPECT_NEAR(static_cast<double>(summary.visits[1]),
              2.0 * static_cast<double>(summary.requests), 2.0);
  // Per-visit slave sojourn is half the per-request (two-visit) total.
  EXPECT_NEAR(summary.mean_sojourn_s[1] * 1000.0, run.true_mean_ms[1] / 2.0,
              run.true_mean_ms[1] * 0.03)
      << "slave";
}

TEST(TracerIntegrationTest, CpgPerRequestReconstruction) {
  TraceRun run = RunTraced(LcAppKind::kSolr, 0.2, false, 0.5);
  const TracerConfig config{.program_base = 100, .num_pods = 2};
  const CpgResult result = BuildCpgs(run.log.events(), config);
  EXPECT_EQ(result.requests.size(), run.requests);
  // Solr chain: 6 events per request, all reachable from the ACCEPT.
  size_t complete = 0;
  for (const Cpg& cpg : result.requests) {
    if (cpg.event_indices.size() == 6) {
      ++complete;
    }
    EXPECT_GE(cpg.LatencySeconds(), 0.0);
  }
  // The vast majority reconstruct fully (ties in timestamps can merge a
  // handful under identical-instant pathologies).
  EXPECT_GT(static_cast<double>(complete), 0.95 * static_cast<double>(run.requests));
}

TEST(TracerIntegrationTest, CpgLatencyMatchesEndToEnd) {
  TraceRun run = RunTraced(LcAppKind::kEcommerce, 0.2, false, 0.0);
  const TracerConfig config{.program_base = 100, .num_pods = 4};
  const CpgResult result = BuildCpgs(run.log.events(), config);
  ASSERT_FALSE(result.requests.empty());
  double mean_latency = 0.0;
  for (const Cpg& cpg : result.requests) {
    mean_latency += cpg.LatencySeconds() * 1000.0;
  }
  mean_latency /= static_cast<double>(result.requests.size());
  // Mean end-to-end = sum of per-pod means on the chain.
  double expected = 0.0;
  for (double pod_ms : run.true_mean_ms) {
    expected += pod_ms;
  }
  EXPECT_NEAR(mean_latency, expected, expected * 0.05);
}

// Bit-exact comparison of two summaries: the streaming sink must reproduce
// the buffered extraction, not approximate it.
void ExpectSameSummary(const SojournSummary& actual, const SojournSummary& expected) {
  ASSERT_EQ(actual.mean_sojourn_s.size(), expected.mean_sojourn_s.size());
  for (size_t pod = 0; pod < expected.mean_sojourn_s.size(); ++pod) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.mean_sojourn_s[pod]),
              std::bit_cast<uint64_t>(expected.mean_sojourn_s[pod]))
        << "pod " << pod << ": " << actual.mean_sojourn_s[pod] << " vs "
        << expected.mean_sojourn_s[pod];
  }
  EXPECT_EQ(actual.visits, expected.visits);
  EXPECT_EQ(actual.requests, expected.requests);
  EXPECT_EQ(actual.noise_filtered, expected.noise_filtered);
}

TEST(TracerIntegrationTest, StreamingSinkMatchesBufferedExtraction) {
  // A noisy, persistent-connection Redis stream: fan-out visits, ephemeral
  // reply ports and filtered noise all exercise the per-event paths.
  TraceRun run = RunTraced(LcAppKind::kRedis, 0.3, true, 0.5);
  const TracerConfig config{.program_base = 100, .num_pods = 2};
  ASSERT_GT(run.log.size(), 1000u);
  MeanSojournSink sink(config);
  for (const KernelEvent& event : run.log.events()) {
    sink.Record(event);
  }
  const SojournSummary streamed = sink.Summary();
  EXPECT_GT(streamed.noise_filtered, 0u);
  EXPECT_GT(streamed.requests, 0u);
  ExpectSameSummary(streamed, ExtractMeanSojourns(run.log.events(), config));
}

TEST(TracerIntegrationTest, StreamingSinkClearStartsANewWindow) {
  // Clear() mid-stream (the profiler's end of warm-up) must leave exactly
  // the extraction over the events that follow it.
  TraceRun run = RunTraced(LcAppKind::kEcommerce, 0.4, false, 1.0);
  const TracerConfig config{.program_base = 100, .num_pods = 4};
  const std::vector<KernelEvent>& events = run.log.events();
  const size_t cut = events.size() / 3;
  MeanSojournSink sink(config);
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == cut) {
      sink.Clear();
    }
    sink.Record(events[i]);
  }
  const std::span<const KernelEvent> after(events.data() + cut, events.size() - cut);
  ExpectSameSummary(sink.Summary(), ExtractMeanSojourns(after, config));
  // A cleared sink with nothing recorded reports an empty window.
  sink.Clear();
  const SojournSummary empty = sink.Summary();
  EXPECT_EQ(empty.requests, 0u);
  EXPECT_EQ(empty.noise_filtered, 0u);
  EXPECT_EQ(empty.visits, std::vector<uint64_t>(4, 0));
  EXPECT_EQ(empty.mean_sojourn_s, std::vector<double>(4, 0.0));
}

}  // namespace
}  // namespace rhythm
