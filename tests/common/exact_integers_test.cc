// Integers read through the JSON module are exact. Seeds are 64-bit (trial
// seeds derive from full-width hashes), so everything that reads a seed or
// a counter back — what-if bodies, the daemon snapshot, obs JSONL
// recordings — must neither round it through a double nor truncate, wrap or
// cast an out-of-range value.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/obs/exporters.h"
#include "src/serve/daemon.h"
#include "src/serve/whatif.h"

namespace rhythm {
namespace {

constexpr uint64_t kTwo53Plus1 = (uint64_t{1} << 53) + 1;  // 9007199254740993
constexpr uint64_t kMaxSeed = std::numeric_limits<uint64_t>::max();

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << error;
  return value;
}

TEST(JsonExactIntegerTest, IntegralLiteralsAreKeptExactly) {
  uint64_t u = 0;
  int64_t i = 0;
  ASSERT_TRUE(MustParse("9007199254740993").GetUInt64(&u));
  EXPECT_EQ(u, kTwo53Plus1);
  ASSERT_TRUE(MustParse("18446744073709551615").GetUInt64(&u));
  EXPECT_EQ(u, kMaxSeed);
  ASSERT_TRUE(MustParse("-9223372036854775808").GetInt64(&i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(MustParse("-1").GetInt64(&i));
  EXPECT_EQ(i, -1);
  // The double view is still there for number readers.
  EXPECT_EQ(MustParse("9007199254740993").number, 9007199254740992.0);
}

TEST(JsonExactIntegerTest, NonIntegersAreNotRoundedOrWrapped) {
  uint64_t u = 7;
  int64_t i = 7;
  EXPECT_FALSE(MustParse("1.5").GetUInt64(&u));
  EXPECT_FALSE(MustParse("1.0").GetInt64(&i));
  EXPECT_FALSE(MustParse("1e3").GetUInt64(&u));
  EXPECT_FALSE(MustParse("1e300").GetInt64(&i));
  EXPECT_FALSE(MustParse("-1").GetUInt64(&u));
  EXPECT_FALSE(MustParse("18446744073709551616").GetUInt64(&u));
  EXPECT_FALSE(MustParse("9223372036854775808").GetInt64(&i));
  EXPECT_FALSE(MustParse("\"7\"").GetUInt64(&u));
  EXPECT_EQ(u, 7u);  // untouched on failure.
  EXPECT_EQ(i, 7);
  const JsonValue doc = MustParse("{\"a\":1.5,\"b\":-1}");
  EXPECT_EQ(doc.IntOr("a", 3), 3);
  EXPECT_EQ(doc.UIntOr("b", 4u), 4u);
  EXPECT_EQ(doc.IntOr("b", 4), -1);
}

WhatIfQuery Query(const std::string& body) {
  return ParseWhatIfQuery(MustParse(body));
}

TEST(WhatIfExactSeedTest, LargeSeedsSurviveParseAndEcho) {
  for (const uint64_t seed : {kTwo53Plus1, kMaxSeed}) {
    const std::string literal = std::to_string(seed);
    const WhatIfQuery trial =
        Query("{\"app\":\"Redis\",\"seed\":" + literal + "}");
    EXPECT_EQ(trial.trial.seed, seed);
    const std::string echoed = WhatIfResponseJson(trial, RunSummary{});
    EXPECT_NE(echoed.find("\"seed\":" + literal + ","), std::string::npos)
        << echoed;
    EXPECT_EQ(MustParse(echoed).UIntOr("seed", 0), seed);

    const WhatIfQuery cluster =
        Query("{\"kind\":\"cluster\",\"seed\":" + literal + "}");
    EXPECT_EQ(cluster.cluster.seed, seed);
    const std::string cluster_echo =
        WhatIfResponseJson(cluster, ClusterSummary{});
    EXPECT_NE(cluster_echo.find("\"seed\":" + literal + ","), std::string::npos)
        << cluster_echo;
  }
  // Neighbouring seeds stay distinct (a double would merge 2^53 and 2^53+1).
  EXPECT_NE(Query("{\"seed\":9007199254740992}").trial.seed,
            Query("{\"seed\":9007199254740993}").trial.seed);
}

// The daemon answers 422 for an std::invalid_argument whose message does not
// start with "json:" (DESIGN.md §15); the message must name the bad key.
void ExpectSchemaErrorNaming(const std::string& body, const std::string& key) {
  try {
    EvalWhatIfJson(body, WhatIfEvalOptions{});
    ADD_FAILURE() << "accepted: " << body;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.rfind("json:", 0), 0u) << what;  // 422, not 400.
    EXPECT_NE(what.find("\"" + key + "\""), std::string::npos)
        << body << " -> " << what;
  }
}

TEST(WhatIfExactSeedTest, FractionalNegativeAndHugeIntegersAre422s) {
  for (const std::string bad : {"1.5", "-1", "1e300"}) {
    ExpectSchemaErrorNaming("{\"app\":\"Redis\",\"seed\":" + bad + "}", "seed");
    ExpectSchemaErrorNaming("{\"kind\":\"cluster\",\"seed\":" + bad + "}",
                            "seed");
    ExpectSchemaErrorNaming("{\"kind\":\"cluster\",\"machines\":" + bad + "}",
                            "machines");
    ExpectSchemaErrorNaming("{\"kind\":\"cluster\",\"epochs\":" + bad + "}",
                            "epochs");
  }
  ExpectSchemaErrorNaming("{\"seed\":18446744073709551616}", "seed");
  ExpectSchemaErrorNaming("{\"seed\":\"7\"}", "seed");
  ExpectSchemaErrorNaming(
      "{\"kind\":\"cluster\",\"lc_demand\":[{\"app\":\"Redis\",\"count\":2.5}]}",
      "count");
  EXPECT_THROW(PlacementsResponseJson(MustParse("{\"machines\":1e300}")),
               std::invalid_argument);
  EXPECT_THROW(PlacementsResponseJson(MustParse("{\"seed\":-1}")),
               std::invalid_argument);
}

TEST(JsonlExactIntegerTest, LargeSeedAndCountersRoundTrip) {
  Recording recording;
  recording.meta.app = "Redis";
  recording.meta.seed = 9069918456669805257ull;
  recording.meta.pods = {"Master"};
  recording.events_total = kMaxSeed;
  recording.events_dropped = kTwo53Plus1;
  MetricsRegistry::Metric metric;
  metric.name = "tail_ms_p99";
  metric.type = MetricType::kHistogram;
  metric.quantile = 0.99;
  metric.observations = kTwo53Plus1;
  metric.timeline.Add(1.0, 0.1);
  recording.metrics.push_back(metric);

  const std::string jsonl = ToJsonl(recording);
  const Recording copy = FromJsonl(jsonl);
  EXPECT_EQ(copy.meta.seed, 9069918456669805257ull);
  EXPECT_EQ(copy.events_total, kMaxSeed);
  EXPECT_EQ(copy.events_dropped, kTwo53Plus1);
  ASSERT_EQ(copy.metrics.size(), 1u);
  EXPECT_EQ(copy.metrics[0].observations, kTwo53Plus1);
  EXPECT_EQ(ToJsonl(copy), jsonl);

  // A fractional or negative counter is malformed, not truncated or wrapped.
  EXPECT_THROW(FromJsonl("{\"type\":\"meta\",\"seed\":1.5}\n"), std::runtime_error);
  EXPECT_THROW(FromJsonl("{\"type\":\"meta\",\"seed\":-1}\n"), std::runtime_error);
}

TEST(DaemonSnapshotExactTest, RestoredCountersAreExact) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rhythm_exact_snapshot_" + std::to_string(::getpid())))
          .string();
  {
    std::ofstream out(path);
    out << "{\"version\":1,\"audit_seq\":9007199254740993}";
  }
  DaemonOptions options;
  options.server.port = 0;
  RhythmDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.RestoreSnapshot(path, &error)) << error;
  EXPECT_EQ(daemon.audit_seq(), kTwo53Plus1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rhythm
