#include "perfbench/cluster_trace.h"

#include <cctype>
#include <memory>
#include <mutex>

#include "src/common/stats.h"
#include "src/place/interference_score.h"
#include "src/place/placement_policy.h"

namespace perfbench {
namespace {

constexpr const char* kTimedPolicy = "perfbench-timed-rhythm-aware";

// Decide() timings of the wrapper below. The registry owns the policy
// objects, so the wrapper reports into this process-wide sink. Policies call
// the model provider lazily from inside Decide(); the provider's time is
// kept here too, so Decide() is charged only its own time.
struct DecideSink {
  std::mutex mutex;
  bool active = false;
  double seconds = 0.0;
  int calls = 0;
  double model_seconds = 0.0;  // provider time, running total.
};

DecideSink& Sink() {
  static DecideSink sink;
  return sink;
}

class TimedPolicy : public rhythm::PlacementPolicy {
 public:
  explicit TimedPolicy(uint64_t seed)
      : inner_(rhythm::MakePlacementPolicy(rhythm::kPolicyRhythmAware, seed)) {}

  const std::string& name() const override { return inner_->name(); }
  void OnTick(const rhythm::ClusterView& view) override { inner_->OnTick(view); }

  std::vector<rhythm::PlacementDecision> Decide(const rhythm::ClusterView& view) override {
    DecideSink& sink = Sink();
    double model_before = 0.0;
    {
      std::lock_guard<std::mutex> lock(sink.mutex);
      model_before = sink.model_seconds;
    }
    const Clock::time_point begin = Clock::now();
    std::vector<rhythm::PlacementDecision> decisions = inner_->Decide(view);
    const double seconds = SecondsBetween(begin, Clock::now());
    std::lock_guard<std::mutex> lock(sink.mutex);
    if (sink.active) {
      sink.seconds += seconds - (sink.model_seconds - model_before);
      ++sink.calls;
    }
    return decisions;
  }

 private:
  std::unique_ptr<rhythm::PlacementPolicy> inner_;
};

void RegisterTimedPolicy() {
  static const bool registered = rhythm::RegisterPlacementPolicy(
      kTimedPolicy, [](uint64_t seed) { return std::make_unique<TimedPolicy>(seed); });
  (void)registered;
}

}  // namespace

const std::vector<rhythm::LcAppKind>& FiveApps() {
  static const std::vector<rhythm::LcAppKind> apps = {
      rhythm::LcAppKind::kEcommerce, rhythm::LcAppKind::kRedis, rhythm::LcAppKind::kSolr,
      rhythm::LcAppKind::kElasticsearch, rhythm::LcAppKind::kElgg};
  return apps;
}

std::string MetricAppName(rhythm::LcAppKind app) {
  std::string name;
  for (const char* c = rhythm::LcAppKindName(app); *c != '\0'; ++c) {
    if (std::isalnum(static_cast<unsigned char>(*c))) {
      name += static_cast<char>(std::tolower(static_cast<unsigned char>(*c)));
    }
  }
  return name;
}

void ClusterTrace::Attach(rhythm::ClusterRunRequest* request) {
  request->on_tick = [this](const rhythm::ClusterTickSnapshot& snapshot) {
    if (active_) {
      barriers_.push_back({Clock::now(), snapshot.epoch, snapshot.window_end_s,
                           !snapshot.lost_machines.empty()});
    }
  };
  if (!traced_) {
    return;
  }
  RegisterTimedPolicy();
  request->policy = kTimedPolicy;
  request->model_provider = [this](rhythm::LcAppKind app) {
    ModelCall call;
    call.app = app;
    call.begin = Clock::now();
    call.cpu_begin = ProcessCpuSeconds();
    rhythm::AppPlacementModel model = rhythm::DefaultPlacementModel(app);
    call.end = Clock::now();
    call.cpu_end = ProcessCpuSeconds();
    DecideSink& sink = Sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.model_seconds += SecondsBetween(call.begin, call.end);
    if (active_) {
      model_calls_.push_back(call);
    }
    return model;
  };
}

void ClusterTrace::Begin() {
  {
    DecideSink& sink = Sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.active = traced_;
    sink.seconds = 0.0;
    sink.calls = 0;
  }
  barriers_.clear();
  model_calls_.clear();
  active_ = true;
  cpu_begin_ = ProcessCpuSeconds();
  begin_ = Clock::now();
}

void ClusterTrace::End() {
  end_ = Clock::now();
  cpu_end_ = ProcessCpuSeconds();
  active_ = false;
  std::lock_guard<std::mutex> lock(Sink().mutex);
  Sink().active = false;
}

double ClusterTrace::FirstBarrierSeconds() const {
  return barriers_.empty() ? WallSeconds() : SecondsBetween(begin_, barriers_.front().at);
}

std::vector<double> ClusterTrace::EpochSetupSeconds(double warmup_s) const {
  std::vector<double> seconds;
  Clock::time_point epoch_start = begin_;
  for (size_t i = 0; i < barriers_.size(); ++i) {
    if (i > 0 && barriers_[i].epoch != barriers_[i - 1].epoch) {
      epoch_start = barriers_[i - 1].at;
    }
    if (barriers_[i].window_end_s == warmup_s) {
      seconds.push_back(SecondsBetween(epoch_start, barriers_[i].at));
    }
  }
  return seconds;
}

void ClusterTrace::Report(const rhythm::ClusterSummary& summary, int shards,
                          std::map<std::string, double>* layers) const {
  auto& out = *layers;
  double model_s = 0.0;
  for (rhythm::LcAppKind app : FiveApps()) {
    out["cluster.derive_s." + MetricAppName(app)] = 0.0;
  }
  for (const ModelCall& call : model_calls_) {
    const double seconds = SecondsBetween(call.begin, call.end);
    out["cluster.derive_s." + MetricAppName(call.app)] += seconds;
    model_s += seconds;
  }
  double model_cpu_s = 0.0;
  for (const ModelCall& call : model_calls_) {
    model_cpu_s += call.cpu_end - call.cpu_begin;
  }
  out["cluster.derive_cpu_s"] = model_cpu_s;
  out["place.model_ms"] = 1e3 * model_s;
  out["place.decide_ms"] = 1e3 * Sink().seconds;
  out["place.decide_calls"] = Sink().calls;

  std::vector<double> windows;
  std::vector<double> gaps;
  double failover_window_s = 0.0;
  for (size_t i = 1; i < barriers_.size(); ++i) {
    const double seconds = SecondsBetween(barriers_[i - 1].at, barriers_[i].at);
    if (barriers_[i].epoch == barriers_[i - 1].epoch) {
      windows.push_back(seconds);
    } else if (i + 1 < barriers_.size() && barriers_[i + 1].epoch == barriers_[i].epoch) {
      // Less the epoch's next window, an estimate of its first one's cost.
      gaps.push_back(seconds - SecondsBetween(barriers_[i].at, barriers_[i + 1].at));
    }
    if (barriers_[i].loss) {
      failover_window_s += seconds;
    }
  }
  const double window_p50 = rhythm::Percentile(windows, 0.5);
  double gap_s = 0.0;
  for (double gap : gaps) {
    gap_s += gap / static_cast<double>(gaps.size());
  }
  out["sim.windows"] = static_cast<double>(barriers_.size());
  out["sim.window_ms_p50"] = 1e3 * window_p50;
  out["sim.window_ms_max"] = 1e3 * rhythm::Percentile(windows, 1.0);
  out["sim.first_barrier_ms"] = 1e3 * FirstBarrierSeconds();
  out["sim.epoch_gap_ms"] = 1e3 * gap_s;
  out["sim.shard_busy"] = (cpu_end_ - cpu_begin_) / (WallSeconds() * shards);
  out["control.failover_window_ms"] = 1e3 * failover_window_s;
  out["control.machines_failed"] = summary.machines_failed;
  out["control.groups_failed_over"] = summary.groups_failed_over;
  out["control.pods_migrated"] = summary.pods_migrated;
}

}  // namespace perfbench
