// serve_openloop: a RhythmDaemon on loopback, fed an open-loop Poisson
// schedule of trial what-if queries by a separate client process (this same
// binary, `loadgen` mode).

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/checks.h"
#include "perfbench/cluster_trace.h"
#include "perfbench/workloads.h"
#include "src/bemodel/be_job_spec.h"
#include "src/cluster/app_thresholds.h"
#include "src/cluster/deployment.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/runner/run_request.h"
#include "src/runner/runner.h"
#include "src/serve/daemon.h"
#include "src/serve/json.h"
#include "src/serve/whatif.h"
#include "tests/serve/http_client.h"

extern char** environ;

namespace perfbench {
namespace {

// Query index bases: set-up queries and sweep steps draw bodies from their
// own index ranges, so every body of a run is distinct.
constexpr uint64_t kSetupBase = 1u << 30;
constexpr uint64_t kSweepBase = 1u << 20;

struct Exchange {
  std::string body;
  int status = 0;
  std::string response;
  double late_s = 0.0;     // dispatch - due (generator lateness).
  double latency_s = 0.0;  // response complete - due.
};

// Poisson arrivals at `rate_qps`: `count` due times (seconds from start).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_qps, int count) {
  rhythm::SplitMix64 stream(seed);
  std::vector<double> due;
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    const double u = static_cast<double>(stream.Next() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate_qps;
    due.push_back(t);
  }
  return due;
}

std::string SelfPath() {
  char path[4096];
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  return n > 0 ? std::string(path, static_cast<size_t>(n)) : std::string();
}

// One exchange on a fresh loopback connection, which the daemon closes after
// answering: a kept-alive connection would hold one of its workers.
rhythm::testing::TestResponse Call(int port, const std::string& method, const std::string& path,
                                   const std::string& body) {
  rhythm::testing::TestClient client(port);
  if (!client.connected()) {
    return {};
  }
  return client.Request(method, path, body, "Connection: close\r\n");
}

// Runs the client process over `due`/`bodies` and collects its results.
bool RunLoadgen(int port, const std::vector<double>& due,
                std::vector<Exchange>* exchanges, std::string* error) {
  int to_child[2], from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
  posix_spawn_file_actions_addclose(&actions, to_child[1]);
  posix_spawn_file_actions_addclose(&actions, from_child[0]);
  const std::string self = SelfPath();
  std::vector<char*> argv = {const_cast<char*>(self.c_str()), const_cast<char*>("loadgen"),
                             nullptr};
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(to_child[0]);
  ::close(from_child[1]);
  if (spawned != 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    *error = "cannot start the client process";
    return false;
  }

  std::ostringstream input;
  input.precision(17);
  input << port << ' ' << due.size() << '\n';
  for (size_t i = 0; i < due.size(); ++i) {
    input << due[i] << ' ' << (*exchanges)[i].body.size() << '\n' << (*exchanges)[i].body;
  }
  const std::string text = input.str();
  // The child reads its whole input before it sends anything, so writing
  // everything before reading cannot deadlock.
  std::FILE* in = ::fdopen(to_child[1], "w");
  std::fwrite(text.data(), 1, text.size(), in);
  std::fclose(in);

  std::string output;
  char buffer[65536];
  for (ssize_t n; (n = ::read(from_child[0], buffer, sizeof(buffer))) != 0;) {
    if (n > 0) {
      output.append(buffer, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  ::close(from_child[0]);
  int wait_status = 0;
  ::waitpid(pid, &wait_status, 0);
  if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    *error = "client process failed";
    return false;
  }

  size_t at = 0;
  for (size_t i = 0; i < due.size(); ++i) {
    const size_t eol = output.find('\n', at);
    if (eol == std::string::npos) {
      *error = "client output truncated";
      return false;
    }
    std::istringstream head(output.substr(at, eol - at));
    size_t index = 0, length = 0;
    Exchange result;
    head >> index >> result.status >> result.late_s >> result.latency_s >> length;
    if (!head || index >= due.size() || eol + 1 + length > output.size()) {
      *error = "client output malformed";
      return false;
    }
    Exchange& exchange = (*exchanges)[index];
    exchange.status = result.status;
    exchange.late_s = result.late_s;
    exchange.latency_s = result.latency_s;
    exchange.response = output.substr(eol + 1, length);
    at = eol + 1 + length;
  }
  return true;
}

// One open-loop phase at `rate_qps`: `count` queries from `base` on.
std::vector<Exchange> OpenLoopPhase(const ServeConfig& config, int port, uint64_t seed,
                                    uint64_t base, double rate_qps, int count,
                                    std::string* error) {
  std::vector<Exchange> exchanges(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    exchanges[static_cast<size_t>(i)].body = WhatIfBody(config, seed, base + i);
  }
  const std::vector<double> due =
      PoissonSchedule(rhythm::DeriveTrialSeed(seed, base + 7), rate_qps, count);
  if (!RunLoadgen(port, due, &exchanges, error)) {
    exchanges.clear();
  }
  return exchanges;
}

std::vector<double> LatenciesMs(const std::vector<Exchange>& exchanges) {
  std::vector<double> ms;
  for (const Exchange& exchange : exchanges) {
    ms.push_back(1e3 * exchange.latency_s);
  }
  return ms;
}

// Value of a Prometheus sample line `name{labels} value` in `text`.
double ScrapeSample(const std::string& text, const std::string& series) {
  const size_t at = text.find(series + " ");
  return at == std::string::npos ? 0.0 : std::atof(text.c_str() + at + series.size() + 1);
}

// Checks every exchange against the batch evaluation of its body; returns
// the first failure.
std::string CheckExchanges(const std::vector<const Exchange*>& exchanges) {
  std::vector<std::string> failures(exchanges.size());
  std::vector<std::thread> workers;
  for (int w = 0; w < kShards; ++w) {
    workers.emplace_back([&, w] {
      rhythm::WhatIfEvalOptions batch;
      batch.runner.jobs = 1;
      batch.runner.shards = 1;
      for (size_t i = static_cast<size_t>(w); i < exchanges.size(); i += kShards) {
        const Exchange& exchange = *exchanges[i];
        try {
          failures[i] = CheckWhatIfResponse(exchange.status, exchange.response,
                                            rhythm::EvalWhatIfJson(exchange.body, batch));
        } catch (const std::exception& e) {
          failures[i] = std::string("batch evaluation threw: ") + e.what();
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (size_t i = 0; i < failures.size(); ++i) {
    if (!failures[i].empty()) {
      return "query " + std::to_string(i) + ": " + failures[i];
    }
  }
  return {};
}

// Traced: the serve path's stages timed from outside on the run's own
// bodies — parse, Run() split by TrialHooks, render.
void TraceServePath(const ServeConfig& config, const std::vector<Exchange>& exchanges,
                    std::map<std::string, double>* layers) {
  std::vector<double> parse_us, render_us, build_ms, simulate_ms, harvest_ms, events;
  double events_total = 0.0, simulate_total_s = 0.0;
  for (size_t i = 0; i < exchanges.size(); ++i) {
    Clock::time_point begin = Clock::now();
    rhythm::JsonValue doc;
    std::string error;
    rhythm::ParseJson(exchanges[i].body, &doc, &error);
    const rhythm::WhatIfQuery query = rhythm::ParseWhatIfQuery(doc);
    parse_us.push_back(1e6 * SecondsBetween(begin, Clock::now()));
    if (static_cast<int>(i) >= config.runner_samples) {
      continue;
    }
    Clock::time_point started, inspected;
    uint64_t executed = 0;
    rhythm::TrialHooks hooks;
    hooks.after_start = [&](rhythm::Deployment&) { started = Clock::now(); };
    hooks.inspect = [&](const rhythm::Deployment& deployment, const rhythm::RunSummary&) {
      inspected = Clock::now();
      executed = deployment.sim().executed_events();
    };
    begin = Clock::now();
    const rhythm::RunSummary summary = rhythm::Run(query.trial, hooks);
    const Clock::time_point returned = Clock::now();
    build_ms.push_back(1e3 * SecondsBetween(begin, started));
    simulate_ms.push_back(1e3 * SecondsBetween(started, inspected));
    harvest_ms.push_back(1e3 * SecondsBetween(inspected, returned));
    events.push_back(static_cast<double>(executed));
    events_total += static_cast<double>(executed);
    simulate_total_s += SecondsBetween(started, inspected);
    begin = Clock::now();
    const std::string rendered = rhythm::WhatIfResponseJson(query, summary);
    render_us.push_back(1e6 * SecondsBetween(begin, Clock::now()));
  }
  auto& out = *layers;
  out["serve.parse_us_p50"] = rhythm::Percentile(parse_us, 0.5);
  out["serve.render_us_p50"] = rhythm::Percentile(render_us, 0.5);
  out["runner.build_ms_p50"] = rhythm::Percentile(build_ms, 0.5);
  out["runner.simulate_ms_p50"] = rhythm::Percentile(simulate_ms, 0.5);
  out["runner.harvest_ms_p50"] = rhythm::Percentile(harvest_ms, 0.5);
  out["runner.events_per_trial"] = rhythm::Percentile(events, 0.5);
  out["runner.events_per_s"] = simulate_total_s > 0.0 ? events_total / simulate_total_s : 0.0;
}

// One offered rate of the sweep: its tail, and whether the tail stayed under
// the limit with no growing backlog.
struct SweepPoint {
  double rate = 0.0;
  double tail_ms = 0.0;
  bool pass = false;
};

SweepPoint MeasurePoint(double rate, const std::vector<Exchange>& exchanges) {
  const std::vector<double> ms = LatenciesMs(exchanges);
  const std::vector<double> last_quarter(ms.end() - static_cast<long>(ms.size() / 4), ms.end());
  SweepPoint point;
  point.rate = rate;
  point.tail_ms = rhythm::Percentile(ms, kTailQuantile);
  point.pass = point.tail_ms <= kLatencyLimitMs &&
               rhythm::Percentile(last_quarter, 0.5) <= kLatencyLimitMs;
  return point;
}

// Highest offered rate that met the limit, interpolated between the last
// passing and the first failing rate, with which `points` ends; 0 when not
// even the fixed rate (the first point) met the limit.
double MaxRate(const std::vector<SweepPoint>& points) {
  if (points.size() < 2) {
    return 0.0;
  }
  const SweepPoint& pass = points[points.size() - 2];
  const SweepPoint& fail = points.back();
  const double span = fail.tail_ms - pass.tail_ms;
  const double frac = span > 0.0 ? (kLatencyLimitMs - pass.tail_ms) / span : 0.0;
  return pass.rate + std::clamp(frac, 0.0, 1.0) * (fail.rate - pass.rate);
}

uint64_t Combinations(const ServeConfig& config) {
  const size_t apps = config.apps.empty() ? FiveApps().size() : config.apps.size();
  return apps * rhythm::EvaluationBeJobKinds().size() * std::size(kServeLoads);
}

}  // namespace

std::string WhatIfBody(const ServeConfig& config, uint64_t seed, uint64_t index) {
  const std::vector<rhythm::LcAppKind>& apps = config.apps.empty() ? FiveApps() : config.apps;
  const std::vector<rhythm::BeJobKind>& bes = rhythm::EvaluationBeJobKinds();
  const uint64_t app = index % apps.size();
  const uint64_t be = (index / apps.size()) % bes.size();
  const uint64_t load = (index / (apps.size() * bes.size())) % std::size(kServeLoads);
  // JSON numbers are doubles: keep trial seeds exactly representable.
  const uint64_t trial_seed = rhythm::DeriveTrialSeed(seed, index) >> 33;
  rhythm::JsonWriter w;
  w.BeginObject()
      .Key("kind").String("trial")
      .Key("app").String(rhythm::LcAppKindName(apps[app]))
      .Key("be").String(rhythm::BeJobKindName(bes[be]))
      .Key("seed").UInt(trial_seed)
      .Key("load").Number(kServeLoads[load])
      .Key("warmup_s").Number(config.warmup_s)
      .Key("measure_s").Number(config.measure_s)
      .EndObject();
  return std::move(w).str();
}

int LoadgenMain() {
  std::string input((std::istreambuf_iterator<char>(std::cin)), std::istreambuf_iterator<char>());
  std::istringstream head(input);
  int port = 0;
  size_t count = 0;
  head >> port >> count;
  size_t at = input.find('\n') + 1;
  std::vector<double> due(count);
  std::vector<Exchange> exchanges(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t eol = input.find('\n', at);
    std::istringstream line(input.substr(at, eol - at));
    size_t length = 0;
    line >> due[i] >> length;
    exchanges[i].body = input.substr(eol + 1, length);
    at = eol + 1 + length;
  }

  // Each sender claims the next request in schedule order, sleeps until it is
  // due and sends it, so a request waits for a sender only when all of them
  // are busy, and no hand-off between threads adds a wake-up to its latency.
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due[i]));
  };
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    senders.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < count;) {
        std::this_thread::sleep_until(due_at(i));
        exchanges[i].late_s = SecondsBetween(due_at(i), Clock::now());
        rhythm::testing::TestResponse result = Call(port, "POST", "/v1/whatif", exchanges[i].body);
        exchanges[i].status = result.status;
        exchanges[i].response = std::move(result.body);
        exchanges[i].latency_s = SecondsBetween(due_at(i), Clock::now());
      }
    });
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  for (size_t i = 0; i < count; ++i) {
    std::printf("%zu %d %.9f %.9f %zu\n", i, exchanges[i].status, exchanges[i].late_s,
                exchanges[i].latency_s, exchanges[i].response.size());
    std::fwrite(exchanges[i].response.data(), 1, exchanges[i].response.size(), stdout);
  }
  return std::fflush(stdout) == 0 ? 0 : 1;
}

RunRecord RunServeOpenLoop(const ServeConfig& config, const RunOptions& options) {
  RunRecord record;
  const std::vector<rhythm::LcAppKind>& apps = config.apps.empty() ? FiveApps() : config.apps;
  for (rhythm::LcAppKind app : apps) {
    if (!FileExists(rhythm::ThresholdDiskCachePath(app))) {
      record.AddCheck("cache.warm", "threshold cache lacks " + MetricAppName(app));
      return record;
    }
  }
  rhythm::DaemonOptions daemon_options;
  daemon_options.server.threads = kShards;
  daemon_options.runner.jobs = 1;
  daemon_options.runner.shards = 1;
  daemon_options.prewarm = apps;

  // Set-up: daemon start -> first what-if answered, several times.
  std::vector<Exchange> setup(static_cast<size_t>(config.setup_starts));
  std::vector<double> setup_s;
  std::unique_ptr<rhythm::RhythmDaemon> daemon;
  std::string error;
  for (size_t s = 0; s < setup.size(); ++s) {
    daemon.reset();
    // One app/BE/load combination, a fresh seed each start.
    setup[s].body = WhatIfBody(config, options.seed, kSetupBase + s * Combinations(config));
    const Clock::time_point begin = Clock::now();
    daemon = std::make_unique<rhythm::RhythmDaemon>(daemon_options);
    if (!daemon->Start(&error)) {
      record.AddCheck("serve.daemon", error);
      return record;
    }
    rhythm::testing::TestResponse result =
        Call(daemon->port(), "POST", "/v1/whatif", setup[s].body);
    if (!result.ok) {
      record.AddCheck("serve.daemon", "no answer to the first what-if");
      return record;
    }
    setup_s.push_back(SecondsBetween(begin, Clock::now()));
    setup[s].status = result.status;
    setup[s].response = std::move(result.body);
  }
  const int port = daemon->port();

  // The fixed-rate phase.
  const int count = std::max(config.min_requests,
                             static_cast<int>(std::lround(config.rate_qps * options.seconds)));
  const std::vector<Exchange> fixed =
      OpenLoopPhase(config, port, options.seed, 0, config.rate_qps, count, &error);
  if (fixed.empty()) {
    record.AddCheck("serve.loadgen", error);
    return record;
  }
  const std::vector<double> latency_ms = LatenciesMs(fixed);
  const std::string metrics_text = options.trace ? Call(port, "GET", "/metrics", "").body : "";

  // Traced: the rate sweep behind serve.max_rate_qps, from the fixed rate up
  // by x1.25 per step until a rate fails. Only the time budget bounds it: a
  // sweep that runs out of budget before any rate fails has not found the
  // capacity, and fails its check rather than report the highest rate tried.
  std::vector<std::vector<Exchange>> sweep;
  std::vector<SweepPoint> points = {MeasurePoint(config.rate_qps, fixed)};
  std::string sweep_failure;
  if (options.trace && points.back().pass) {
    double rate = 1.25 * config.rate_qps;
    const Clock::time_point sweep_begin = Clock::now();
    for (uint64_t step = 1; points.back().pass; ++step, rate *= 1.25) {
      if (SecondsBetween(sweep_begin, Clock::now()) + config.sweep_seconds >
          config.sweep_budget_s) {
        sweep_failure = "no rate up to " + std::to_string(points.back().rate) +
                        " q/s exceeded the latency limit within the time budget";
        break;
      }
      const int step_count = std::max(
          config.min_requests, static_cast<int>(std::lround(rate * config.sweep_seconds)));
      sweep.push_back(OpenLoopPhase(config, port, options.seed, kSweepBase * step, rate,
                                    step_count, &error));
      if (sweep.back().empty()) {
        record.AddCheck("serve.loadgen", error);
        return record;
      }
      points.push_back(MeasurePoint(rate, sweep.back()));
    }
  }
  daemon->Stop();
  daemon.reset();
  // The daemon's peak memory, before the checks below add their own.
  record.e2e["peak_rss_mb"] = PeakRssMb();

  // Checks, outside the timed region: every exchange of the run.
  std::vector<const std::vector<Exchange>*> phases = {&setup, &fixed};
  for (const std::vector<Exchange>& phase : sweep) {
    phases.push_back(&phase);
  }
  std::vector<const Exchange*> all;
  for (const std::vector<Exchange>* phase : phases) {
    for (const Exchange& exchange : *phase) {
      all.push_back(&exchange);
    }
  }
  record.attempted = all.size();
  for (const Exchange* exchange : all) {
    record.failed += exchange->status == 200 ? 0 : 1;
  }
  record.AddCheck("serve.responses_match_batch", CheckExchanges(all));
  if (options.trace) {
    record.AddCheck("serve.sweep_found_limit", sweep_failure);
  }

  double emu = 0.0;
  for (const Exchange& exchange : fixed) {
    rhythm::JsonValue doc;
    if (rhythm::ParseJson(exchange.response, &doc, &error) && doc.Find("summary") != nullptr) {
      emu += doc.Find("summary")->NumberOr("emu", 0.0) / static_cast<double>(fixed.size());
    }
  }
  record.e2e["setup_s"] = rhythm::Percentile(setup_s, 0.5);
  record.e2e["latency_ms"] = rhythm::Percentile(latency_ms, 0.5);
  record.e2e["emu"] = emu;
  if (options.trace) {
    auto& out = record.layers;
    std::vector<double> late_ms;
    for (const Exchange& exchange : fixed) {
      late_ms.push_back(1e3 * exchange.late_s);
    }
    out["serve.whatif_tail_ms"] = rhythm::Percentile(latency_ms, kTailQuantile);
    out["serve.max_rate_qps"] = sweep_failure.empty() ? MaxRate(points) : 0.0;
    out["serve.handler_ms_p50"] = ScrapeSample(
        metrics_text, "rhythmd_request_latency_ms{endpoint=\"whatif\",quantile=\"0.5\"}");
    out["serve.handler_ms_p99"] = ScrapeSample(
        metrics_text, "rhythmd_request_latency_ms{endpoint=\"whatif\",quantile=\"0.99\"}");
    out["serve.wait_ms_p50"] = record.e2e["latency_ms"] - out["serve.handler_ms_p50"];
    out["loadgen.late_ms_p99"] = rhythm::Percentile(late_ms, 0.99);
    out["loadgen.late_ms_max"] = rhythm::Percentile(late_ms, 1.0);
    TraceServePath(config, fixed, &record.layers);
  }
  return record;
}

}  // namespace perfbench
