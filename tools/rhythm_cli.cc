// rhythm_cli: flag-driven experiment runner.
//
//   rhythm_cli run --app=<name> --be=<name> --controller=<none|rhythm|heracles>
//              [--load=0.45] [--measure=120] [--warmup=20] [--seed=11] [--csv]
//   rhythm_cli thresholds --app=<name>
//   rhythm_cli profile --app=<name> [--measure=30]
//
// App names: E-commerce | Redis | Solr | Elasticsearch | Elgg | SNMS
// BE names:  CPU-stress | stream-llc(big) | stream-llc(small) |
//            stream-dram(big) | stream-dram(small) | iperf | wordcount |
//            imageClassify | LSTM
// Names match case-insensitively with punctuation ignored. An unknown flag
// or name exits 2.

#include <cstdio>
#include <string>

#include "src/rhythm.h"
#include "tools/common_flags.h"

using namespace rhythm;

namespace {

struct CliOptions {
  std::string app;
  std::string be;
  std::string controller;
  double load = 0.45;
  double warmup_s = 20.0;
  double measure_s = 120.0;
  uint64_t seed = 11;
  bool csv = false;
};

// Parses the flags after the subcommand: `run` takes them all, `profile`
// takes --app and --measure, `thresholds` only --app. False (after a
// message) on an unknown flag.
bool ParseFlags(int argc, char** argv, const std::string& command,
                CliOptions* options) {
  const bool run = command == "run";
  FlagParser flags(argc - 1, argv + 1);  // starts after the subcommand.
  while (flags.Next()) {
    if (flags.Str("--app", &options->app) ||
        (command != "thresholds" && flags.Double("--measure", &options->measure_s)) ||
        (run && (flags.Str("--be", &options->be) ||
                 flags.Str("--controller", &options->controller) ||
                 flags.Double("--load", &options->load) ||
                 flags.Double("--warmup", &options->warmup_s) ||
                 flags.U64("--seed", &options->seed)))) {
      continue;
    }
    if (run && flags.Is("--csv")) {
      options->csv = true;
      continue;
    }
    std::fprintf(stderr, "rhythm_cli %s: unknown or incomplete option '%s'\n",
                 command.c_str(), flags.arg().c_str());
    return false;
  }
  return true;
}

// Reads --app with the shared name parser; false (after a message) when it
// is missing or names no app.
bool AppFlag(const CliOptions& options, const char* command, LcAppKind* app) {
  if (!ParseLcAppKindName(options.app, app)) {
    std::fprintf(stderr, "%s requires --app=<name> (unknown app '%s')\n", command,
                 options.app.c_str());
    return false;
  }
  return true;
}

int CmdRun(const CliOptions& options) {
  RunRequest request;
  if (!AppFlag(options, "run", &request.app)) {
    return 2;
  }
  if (!ParseBeJobKindName(options.be, &request.be) ||
      !ParseControllerKindName(options.controller, &request.controller)) {
    std::fprintf(stderr,
                 "run requires --be=<name> and --controller=<none|rhythm|heracles> "
                 "(got be '%s', controller '%s')\n",
                 options.be.c_str(), options.controller.c_str());
    return 2;
  }
  request.warmup_s = options.warmup_s;
  request.measure_s = options.measure_s;
  request.seed = options.seed;
  request.load = options.load;
  const char* app = LcAppKindName(request.app);
  const char* be = BeJobKindName(request.be);
  const char* controller = ControllerKindName(request.controller);

  const RunSummary s = Run(request);
  if (options.csv) {
    std::printf("app,be,controller,load,emu,be_throughput,cpu_util,membw_util,"
                "worst_tail_ratio,sla_violations,be_kills\n");
    std::printf("%s,%s,%s,%.3f,%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%llu\n", app, be,
                controller, request.load, s.emu, s.be_throughput, s.cpu_util,
                s.membw_util, s.worst_tail_ratio,
                (unsigned long long)s.sla_violations, (unsigned long long)s.be_kills);
    return 0;
  }
  std::printf("%s + %s under %s at %.0f%% load (%.0fs window):\n", app, be,
              controller, request.load * 100.0, request.measure_s);
  std::printf("  EMU            %8.3f\n", s.emu);
  std::printf("  BE throughput  %8.3f (normalized)\n", s.be_throughput);
  std::printf("  CPU util       %8.3f\n", s.cpu_util);
  std::printf("  MemBW util     %8.3f\n", s.membw_util);
  std::printf("  worst tail     %8.2fx SLA\n", s.worst_tail_ratio);
  std::printf("  SLA violations %8llu\n", (unsigned long long)s.sla_violations);
  std::printf("  BE kills       %8llu\n", (unsigned long long)s.be_kills);
  for (size_t pod = 0; pod < s.pods.size(); ++pod) {
    std::printf("  pod %zu: beThr=%.3f cpu=%.3f membw=%.3f instances=%.1f\n", pod,
                s.pods[pod].be_throughput, s.pods[pod].cpu_util, s.pods[pod].membw_util,
                s.pods[pod].be_instances);
  }
  return 0;
}

int CmdThresholds(const CliOptions& options) {
  LcAppKind app = LcAppKind::kEcommerce;
  if (!AppFlag(options, "thresholds", &app)) {
    return 2;
  }
  const AppSpec spec = MakeApp(app);
  const AppThresholds& thresholds = CachedAppThresholds(app);
  std::printf("%-16s %10s %10s %14s\n", "Servpod", "loadlimit", "slacklimit", "contribution");
  for (int pod = 0; pod < spec.pod_count(); ++pod) {
    std::printf("%-16s %10.2f %10.3f %14.5f\n", spec.components[pod].name.c_str(),
                thresholds.pods[pod].loadlimit, thresholds.pods[pod].slacklimit,
                thresholds.contributions[pod].contribution);
  }
  return 0;
}

int CmdProfile(const CliOptions& cli) {
  LcAppKind app = LcAppKind::kEcommerce;
  if (!AppFlag(cli, "profile", &app)) {
    return 2;
  }
  ProfileOptions options;
  options.measure_s = cli.measure_s;
  const ProfileResult profile = ProfileSolo(app, DefaultProfileLevels(), options);
  const AppSpec spec = MakeApp(app);
  std::printf("load");
  for (int pod = 0; pod < spec.pod_count(); ++pod) {
    std::printf(",%s_mean_ms,%s_cov", spec.components[pod].name.c_str(),
                spec.components[pod].name.c_str());
  }
  std::printf(",p99_ms\n");
  for (size_t level = 0; level < profile.levels.size(); ++level) {
    std::printf("%.2f", profile.levels[level]);
    for (int pod = 0; pod < spec.pod_count(); ++pod) {
      std::printf(",%.3f,%.4f", profile.matrix.pod_sojourn_ms[pod][level],
                  profile.pod_cov[pod][level]);
    }
    std::printf(",%.3f\n", profile.matrix.tail_ms[level]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  int (*const handler)(const CliOptions&) =
      command == "run"          ? CmdRun
      : command == "thresholds" ? CmdThresholds
      : command == "profile"    ? CmdProfile
                                : nullptr;
  if (handler == nullptr) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  rhythm_cli run --app=<name> --be=<name> "
                 "--controller=<none|rhythm|heracles>\n"
                 "             [--load=0.45] [--measure=120] [--warmup=20] [--seed=11] [--csv]\n"
                 "  rhythm_cli thresholds --app=<name>\n"
                 "  rhythm_cli profile --app=<name> [--measure=30]\n");
    return 2;
  }
  CliOptions options;
  if (command == "profile") {
    options.measure_s = 30.0;
  }
  if (!ParseFlags(argc, argv, command, &options)) {
    return 2;
  }
  return handler(options);
}
