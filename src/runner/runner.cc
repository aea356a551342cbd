#include "src/runner/runner.h"

#include <vector>

#include "src/common/env.h"
#include "src/common/shard_pool.h"
#include "src/runner/trial.h"

namespace rhythm {

RunSummary Run(const RunRequest& request) { return Run(request, TrialHooks{}); }

RunSummary Run(const RunRequest& request, const TrialHooks& hooks) {
  // The whole trial lifecycle lives in Trial (src/runner/trial.h) so the
  // partitioned cluster engine can drive the identical code path window by
  // window; this is the single-call form.
  Trial trial(request, hooks);
  trial.Start();
  trial.AdvanceTo(trial.end_time());
  return trial.Finish();
}

ParallelRunner::ParallelRunner(const RunnerOptions& options)
    : jobs_(options.jobs > 0 ? options.jobs : DefaultJobCount()) {}

std::vector<RunSummary> ParallelRunner::RunAll(const RunPlan& plan) const {
  return ParallelFor(plan.size(), [&](size_t i) { return Run(plan.requests[i]); }, jobs_);
}

}  // namespace rhythm
