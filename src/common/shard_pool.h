// ShardPool: a fixed set of persistent worker threads driven in synchronized
// phases — the worker machinery behind both the parallel experiment runner
// (src/runner) and the partitioned cluster engine (src/sim/sharded_engine).
//
// A phase runs `fn(shard)` once per shard, concurrently, and RunPhase does
// not return until every shard finished — a full barrier. The calling thread
// participates as shard 0, so a pool of N shards spawns N-1 threads and a
// 1-shard pool spawns none (the serial path stays a plain function call,
// with no synchronization in the loop).
//
// Exception contract: if shards throw, the exception from the lowest shard
// index is rethrown after the barrier (mirroring the parallel runner's
// first-error propagation); the others are discarded. The pool stays usable
// for further phases afterwards.
//
// Threads persist across phases, so a caller advancing thousands of
// conservative time windows pays thread creation once, not per window.
//
// ParallelFor, below, is the pool's work-claiming form for a batch of
// independent jobs (the parallel runner's trials, threshold derivation's
// profile levels and probes).

#ifndef RHYTHM_SRC_COMMON_SHARD_POOL_H_
#define RHYTHM_SRC_COMMON_SHARD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rhythm {

class ShardPool {
 public:
  // Spawns `shards - 1` worker threads; shards < 1 is clamped to 1.
  explicit ShardPool(int shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  // Runs fn(shard) for every shard in [0, shards()) and waits for all of
  // them (barrier). `fn` must be safe to call concurrently for distinct
  // shard arguments. Not reentrant: RunPhase must not be called from inside
  // a phase, and only one thread may drive the pool.
  void RunPhase(const std::function<void(int shard)>& fn);

  int shards() const { return shards_; }

 private:
  void WorkerLoop(int shard);

  const int shards_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable phase_begin_;
  std::condition_variable phase_done_;
  const std::function<void(int)>* phase_fn_ = nullptr;  // valid during a phase.
  uint64_t phase_ = 0;       // generation counter; bumped to start a phase.
  int running_ = 0;          // workers still inside the current phase.
  bool shutdown_ = false;
  std::vector<std::exception_ptr> errors_;  // per shard, cleared each phase.
};

// Runs body(i) for every i in [0, n) on a ShardPool of min(jobs, n)
// shards; jobs <= 0 means DefaultJobCount() (RHYTHM_JOBS, else
// hardware_concurrency). Workers claim indices from one atomic counter, in
// chunks when n is large. If bodies throw, indices above the lowest failing
// one are not started (those in flight finish) and the lowest failing
// index's exception is rethrown. One shard runs a plain loop on the caller.
void ParallelForEachIndex(size_t n, int jobs, const std::function<void(size_t)>& body);

// ParallelForEachIndex collecting fn(i) into a vector in index order: when
// fn(i) depends only on i, the result is the same at any job count.
template <typename Fn>
auto ParallelFor(size_t n, Fn&& fn, int jobs = 0) {
  using Result = std::invoke_result_t<Fn&, size_t>;
  struct Slot {
    Result value;  // one object per index: no std::vector<bool> word sharing.
  };
  std::vector<Slot> slots(n);
  ParallelForEachIndex(n, jobs, [&](size_t i) { slots[i].value = fn(i); });
  std::vector<Result> results;
  results.reserve(n);
  for (Slot& slot : slots) {
    results.push_back(std::move(slot.value));
  }
  return results;
}

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_SHARD_POOL_H_
