// Golden threshold derivation: DeriveAppThresholds, called directly so no
// cache is involved, must reproduce bit for bit the thresholds,
// contributions and profile that the serial derivation produced (the
// constants below were captured from it as hexfloats). Profile levels and
// Algorithm-1 probes run in parallel, so Elgg and Solr are also derived at
// RHYTHM_JOBS=1 and RHYTHM_JOBS=4 against the same constants.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/app_thresholds.h"
#include "src/common/names.h"

namespace rhythm {
namespace {

struct GoldenPod {
  double loadlimit;
  double slacklimit;
  double mean_sojourn_ms;
  double weight_p;
  double correlation_rho;
  double varcoef_v;
  double alpha;
  double contribution;
};

struct GoldenApp {
  LcAppKind app;
  uint64_t requests_profiled;
  // ProfileDigest of the profile matrix, CoV curves and tails.
  uint64_t profile_digest;
  std::vector<GoldenPod> pods;
};

const std::vector<GoldenApp>& GoldenApps() {
  static const std::vector<GoldenApp> apps = {
    {.app = LcAppKind::kEcommerce,
     .requests_profiled = 678440,
     .profile_digest = 0xb066adc49b75950dULL,
     .pods = {
         {.loadlimit = 0x1.ccccccccccccdp-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.37c50d3601155p+0,
          .weight_p = 0x1.0d651ec7443aep-6,
          .correlation_rho = 0x1.392cedc1ccd17p-1,
          .varcoef_v = 0x1.8ec1dc9d8d94p-9,
          .alpha = 0x1p+0,
          .contribution = 0x1.00aba7d09c1eap-15},
         {.loadlimit = 0x1.ccccccccccccdp-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.04d21c7bda39ep+5,
          .weight_p = 0x1.c2bdde3f9e761p-2,
          .correlation_rho = 0x1.f0468a4efe9a5p-1,
          .varcoef_v = 0x1.03f59437e54afp-6,
          .alpha = 0x1p+0,
          .contribution = 0x1.bba7d83bd1d3ap-8},
         {.loadlimit = 0x1.b333333333333p-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.a986ef1dfc05fp+1,
          .weight_p = 0x1.6fb0d9cbec59fp-5,
          .correlation_rho = 0x1.c16128bea6a68p-2,
          .varcoef_v = 0x1.d40d794912c17p-11,
          .alpha = 0x1p+0,
          .contribution = 0x1.27050360896e9p-16},
         {.loadlimit = 0x1.8p-1,
          .slacklimit = 0x1.5688f4707b818p-3,
          .mean_sojourn_ms = 0x1.2760631725911p+5,
          .weight_p = 0x1.fe75b49a6fbbp-2,
          .correlation_rho = 0x1.f5727b6e6055bp-1,
          .varcoef_v = 0x1.62ecb6f613f82p-4,
          .alpha = 0x1p+0,
          .contribution = 0x1.5a904b12aee9cp-5},
     }},
    {.app = LcAppKind::kRedis,
     .requests_profiled = 2089761,
     .profile_digest = 0xc1d847423328ce58ULL,
     .pods = {
         {.loadlimit = 0x1.8p-1,
          .slacklimit = 0x1.8c20228f5366p-3,
          .mean_sojourn_ms = 0x1.b2c260f6ff47dp-4,
          .weight_p = 0x1.9aee0afd552e4p-2,
          .correlation_rho = 0x1.f9a8f3d5cfe99p-1,
          .varcoef_v = 0x1.09af4d42aba26p-3,
          .alpha = 0x1p+0,
          .contribution = 0x1.a531dedf7e636p-5},
         {.loadlimit = 0x1.ccccccccccccdp-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.444f8d8eb8624p-3,
          .weight_p = 0x1.3288fa815568fp-1,
          .correlation_rho = 0x1.f14aafe48dff3p-1,
          .varcoef_v = 0x1.44dd7ab302c9p-7,
          .alpha = 0x1p+0,
          .contribution = 0x1.79d1d96b7106ap-8},
     }},
    {.app = LcAppKind::kSolr,
     .requests_profiled = 208801,
     .profile_digest = 0xaae6fd76a0da26b2ULL,
     .pods = {
         {.loadlimit = 0x1.8p-1,
          .slacklimit = 0x1.9999999999998p-3,
          .mean_sojourn_ms = 0x1.013ac8d9e65ep+6,
          .weight_p = 0x1.ed730f7b736e2p-1,
          .correlation_rho = 0x1.f3b35d94e7c5cp-1,
          .varcoef_v = 0x1.a92f92c25e05bp-5,
          .alpha = 0x1p+0,
          .contribution = 0x1.8fefd70b4fdc2p-5},
         {.loadlimit = 0x1.ccccccccccccdp-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.3572316b3f923p+1,
          .weight_p = 0x1.28cf0848c91dcp-5,
          .correlation_rho = 0x1.fff0d94265792p-3,
          .varcoef_v = 0x1.2b292f17adc7fp-10,
          .alpha = 0x1p+0,
          .contribution = 0x1.5acf4ad08959bp-17},
     }},
    {.app = LcAppKind::kElasticsearch,
     .requests_profiled = 391061,
     .profile_digest = 0x0b0fbdda7b1c50b1ULL,
     .pods = {
         {.loadlimit = 0x1.8p-1,
          .slacklimit = 0x1.e76deb1e69818p-3,
          .mean_sojourn_ms = 0x1.11ac2e9c3ee7cp+5,
          .weight_p = 0x1.6d5491ce45c49p-1,
          .correlation_rho = 0x1.f5771241294cbp-1,
          .varcoef_v = 0x1.9f6a4fec99e6dp-5,
          .alpha = 0x1p+0,
          .contribution = 0x1.2250906c98fc8p-5},
         {.loadlimit = 0x1.ccccccccccccdp-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.b77c9bf975d7ep+3,
          .weight_p = 0x1.2556dc637476cp-2,
          .correlation_rho = 0x1.ec8f87b406847p-1,
          .varcoef_v = 0x1.399f5bc18b69dp-7,
          .alpha = 0x1p+0,
          .contribution = 0x1.59b8e177284f4p-9},
     }},
    {.app = LcAppKind::kElgg,
     .requests_profiled = 104213,
     .profile_digest = 0x8da05a70c77576bbULL,
     .pods = {
         {.loadlimit = 0x1.ccccccccccccdp-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.f348b73dc7322p+5,
          .weight_p = 0x1.4eba7613ccc8dp-1,
          .correlation_rho = 0x1.f548f5c574a92p-1,
          .varcoef_v = 0x1.6f04db84560a9p-6,
          .alpha = 0x1p+0,
          .contribution = 0x1.d5d8a77367e4bp-7},
         {.loadlimit = 0x1.ccccccccccccdp-1,
          .slacklimit = 0x1.eb851eb851eb8p-4,
          .mean_sojourn_ms = 0x1.020acbb4d9af3p+1,
          .weight_p = 0x1.59fdd712a560ap-6,
          .correlation_rho = 0x1.a28ab3aa11d16p-3,
          .varcoef_v = 0x1.bad53f57e194p-10,
          .alpha = 0x1p+0,
          .contribution = 0x1.e94107303ffdfp-18},
         {.loadlimit = 0x1.8p-1,
          .slacklimit = 0x1.07ba81adad79p-2,
          .mean_sojourn_ms = 0x1.f095bac2998c5p+4,
          .weight_p = 0x1.4ceb36673c185p-2,
          .correlation_rho = 0x1.f750e18a8fee9p-1,
          .varcoef_v = 0x1.37691122266bap-4,
          .alpha = 0x1p+0,
          .contribution = 0x1.8e1bf4a55df38p-6},
     }},
  };
  return apps;
}

const GoldenApp& GoldenFor(LcAppKind app) {
  for (const GoldenApp& golden : GoldenApps()) {
    if (golden.app == app) {
      return golden;
    }
  }
  ADD_FAILURE() << "no golden entry for " << LcAppKindName(app);
  return GoldenApps().front();
}

// FNV-1a over the bytes of every profiled double, in a fixed order: pod
// sojourns (pod-major), pod CoVs (pod-major), then tails.
uint64_t ProfileDigest(const ProfileResult& profile) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (const std::vector<double>& row : profile.matrix.pod_sojourn_ms) {
    for (double value : row) {
      mix(value);
    }
  }
  for (const std::vector<double>& row : profile.pod_cov) {
    for (double value : row) {
      mix(value);
    }
  }
  for (double value : profile.matrix.tail_ms) {
    mix(value);
  }
  return hash;
}

// Hexfloat rendering: equal strings mean equal bits, and a mismatch prints
// both values exactly.
std::string Hex(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%a", value);
  return text;
}

void ExpectGolden(const AppThresholds& actual, const GoldenApp& golden) {
  ASSERT_EQ(actual.pods.size(), golden.pods.size());
  ASSERT_EQ(actual.contributions.size(), golden.pods.size());
  for (size_t pod = 0; pod < golden.pods.size(); ++pod) {
    const GoldenPod& want = golden.pods[pod];
    const PodContribution& got = actual.contributions[pod];
    EXPECT_EQ(Hex(actual.pods[pod].loadlimit), Hex(want.loadlimit)) << "pod " << pod;
    EXPECT_EQ(Hex(actual.pods[pod].slacklimit), Hex(want.slacklimit)) << "pod " << pod;
    EXPECT_EQ(Hex(got.mean_sojourn_ms), Hex(want.mean_sojourn_ms)) << "pod " << pod;
    EXPECT_EQ(Hex(got.weight_p), Hex(want.weight_p)) << "pod " << pod;
    EXPECT_EQ(Hex(got.correlation_rho), Hex(want.correlation_rho)) << "pod " << pod;
    EXPECT_EQ(Hex(got.varcoef_v), Hex(want.varcoef_v)) << "pod " << pod;
    EXPECT_EQ(Hex(got.alpha), Hex(want.alpha)) << "pod " << pod;
    EXPECT_EQ(Hex(got.contribution), Hex(want.contribution)) << "pod " << pod;
  }
  EXPECT_EQ(actual.profile.requests_profiled, golden.requests_profiled);
  EXPECT_EQ(ProfileDigest(actual.profile), golden.profile_digest);
}

std::string AppName(LcAppKind app) { return NormalizeName(LcAppKindName(app)); }

class GoldenDerivation : public ::testing::TestWithParam<LcAppKind> {};

TEST_P(GoldenDerivation, MatchesSerialConstants) {
  ExpectGolden(DeriveAppThresholds(GetParam()), GoldenFor(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Apps, GoldenDerivation,
                         ::testing::Values(LcAppKind::kEcommerce, LcAppKind::kRedis,
                                           LcAppKind::kSolr, LcAppKind::kElasticsearch,
                                           LcAppKind::kElgg),
                         [](const ::testing::TestParamInfo<LcAppKind>& info) {
                           return AppName(info.param);
                         });

// Sets RHYTHM_JOBS for one scope and restores the previous value, so cases
// sharing a process do not see each other's job count.
class ScopedJobs {
 public:
  explicit ScopedJobs(int jobs) {
    const char* previous = std::getenv("RHYTHM_JOBS");
    had_previous_ = previous != nullptr;
    if (had_previous_) {
      previous_ = previous;
    }
    ::setenv("RHYTHM_JOBS", std::to_string(jobs).c_str(), 1);
  }
  ~ScopedJobs() {
    if (had_previous_) {
      ::setenv("RHYTHM_JOBS", previous_.c_str(), 1);
    } else {
      ::unsetenv("RHYTHM_JOBS");
    }
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

class GoldenDerivationJobs : public ::testing::TestWithParam<std::tuple<LcAppKind, int>> {};

TEST_P(GoldenDerivationJobs, MatchesSerialConstants) {
  const auto [app, jobs] = GetParam();
  const ScopedJobs scoped(jobs);
  ExpectGolden(DeriveAppThresholds(app), GoldenFor(app));
}

INSTANTIATE_TEST_SUITE_P(
    JobCounts, GoldenDerivationJobs,
    ::testing::Combine(::testing::Values(LcAppKind::kElgg, LcAppKind::kSolr),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<LcAppKind, int>>& info) {
      return AppName(std::get<0>(info.param)) + "_jobs" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace rhythm
