#include "src/common/shard_pool.h"

#include <algorithm>
#include <atomic>

#include "src/common/env.h"

namespace rhythm {

ShardPool::ShardPool(int shards)
    : shards_(std::max(shards, 1)), errors_(static_cast<size_t>(shards_)) {
  threads_.reserve(static_cast<size_t>(shards_ - 1));
  for (int shard = 1; shard < shards_; ++shard) {
    threads_.emplace_back([this, shard] { WorkerLoop(shard); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  phase_begin_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ShardPool::WorkerLoop(int shard) {
  uint64_t seen_phase = 0;
  for (;;) {
    const std::function<void(int)>* fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      phase_begin_.wait(lock,
                        [&] { return shutdown_ || phase_ != seen_phase; });
      if (shutdown_) {
        return;
      }
      seen_phase = phase_;
      fn = phase_fn_;
    }
    std::exception_ptr error;
    try {
      (*fn)(shard);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      errors_[static_cast<size_t>(shard)] = error;
      if (--running_ == 0) {
        phase_done_.notify_one();
      }
    }
  }
}

void ShardPool::RunPhase(const std::function<void(int shard)>& fn) {
  if (shards_ == 1) {
    fn(0);  // serial pool: no threads, no locking.
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_fn_ = &fn;
    running_ = shards_ - 1;
    ++phase_;
  }
  phase_begin_.notify_all();

  std::exception_ptr own_error;
  try {
    fn(0);  // the caller works shard 0.
  } catch (...) {
    own_error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mu_);
  phase_done_.wait(lock, [&] { return running_ == 0; });
  phase_fn_ = nullptr;
  errors_[0] = own_error;
  for (std::exception_ptr& error : errors_) {
    if (error != nullptr) {
      std::exception_ptr first = error;
      for (std::exception_ptr& e : errors_) {
        e = nullptr;
      }
      std::rethrow_exception(first);
    }
  }
}

namespace {

// Indices a worker claims per atomic increment. Batches of a few long jobs
// get chunk 1 (maximum balance); thousand-entry batches of tiny jobs get
// bigger chunks so workers are not serialized on the shared counter — with
// ~8 chunks per worker the tail imbalance stays under ~1/8 of a share.
size_t ChunkSizeFor(size_t n, int workers) {
  const size_t chunk = n / (static_cast<size_t>(workers) * 8);
  return std::clamp<size_t>(chunk, 1, 32);
}

}  // namespace

void ParallelForEachIndex(size_t n, int jobs, const std::function<void(size_t)>& body) {
  if (jobs <= 0) {
    jobs = DefaultJobCount();
  }
  const int workers = static_cast<int>(std::min<size_t>(static_cast<size_t>(jobs), n));
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  const size_t chunk = ChunkSizeFor(n, workers);
  std::atomic<size_t> next{0};
  // Lowest index that failed so far; indices past it are not started, and
  // its exception is rethrown.
  std::atomic<size_t> first_error{n};
  std::vector<std::exception_ptr> error_by_index(n);

  ShardPool pool(workers);
  pool.RunPhase([&](int) {
    for (;;) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) {
        return;
      }
      const size_t end = std::min(begin + chunk, n);
      for (size_t i = begin; i < end; ++i) {
        if (i >= first_error.load(std::memory_order_acquire)) {
          return;
        }
        try {
          body(i);
        } catch (...) {
          error_by_index[i] = std::current_exception();
          size_t expected = first_error.load(std::memory_order_acquire);
          while (i < expected &&
                 !first_error.compare_exchange_weak(expected, i,
                                                    std::memory_order_acq_rel)) {
          }
        }
      }
    }
  });

  const size_t failed = first_error.load(std::memory_order_acquire);
  if (failed < n) {
    std::rethrow_exception(error_by_index[failed]);
  }
}

}  // namespace rhythm
