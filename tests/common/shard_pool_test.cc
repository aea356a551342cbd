// ShardPool: phase barrier semantics, caller participation as shard 0,
// lowest-shard-first exception propagation, and pool reuse across phases
// (including after a throwing phase). ParallelFor: results in index order,
// at most min(jobs, n) threads, lowest failing index rethrown.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/shard_pool.h"

namespace rhythm {
namespace {

TEST(ShardPoolTest, RunsEveryShardExactlyOncePerPhase) {
  ShardPool pool(4);
  EXPECT_EQ(pool.shards(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (auto& hit : hits) {
    hit = 0;
  }
  for (int phase = 0; phase < 3; ++phase) {
    pool.RunPhase([&](int shard) { ++hits[shard]; });
  }
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(hits[shard].load(), 3) << "shard " << shard;
  }
}

TEST(ShardPoolTest, RunPhaseIsABarrier) {
  // Every shard must have entered the phase before RunPhase returns: each
  // shard increments and then spins until all have arrived — this can only
  // terminate if all N callbacks run concurrently-ish and RunPhase waits.
  ShardPool pool(3);
  std::atomic<int> arrived{0};
  pool.RunPhase([&](int) {
    arrived.fetch_add(1);
    while (arrived.load() < 3) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), 3);
}

TEST(ShardPoolTest, CallerParticipatesAsShardZero) {
  ShardPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> by_shard(3);
  pool.RunPhase([&](int shard) { by_shard[shard] = std::this_thread::get_id(); });
  EXPECT_EQ(by_shard[0], caller);
  EXPECT_NE(by_shard[1], caller);
  EXPECT_NE(by_shard[2], caller);
}

TEST(ShardPoolTest, SingleShardPoolSpawnsNoThreads) {
  ShardPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.RunPhase([&](int shard) {
    EXPECT_EQ(shard, 0);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ShardPoolTest, LowestShardExceptionWins) {
  ShardPool pool(4);
  // Shards 1 and 3 throw; the barrier still completes and shard 1's
  // exception is the one rethrown.
  try {
    pool.RunPhase([](int shard) {
      if (shard == 1 || shard == 3) {
        throw std::runtime_error("shard " + std::to_string(shard));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 1");
  }

  // The pool survives a throwing phase.
  std::atomic<int> ran{0};
  pool.RunPhase([&](int) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ShardPoolTest, ClampsShardCountToOne) {
  ShardPool pool(0);
  EXPECT_EQ(pool.shards(), 1);
  int runs = 0;
  pool.RunPhase([&](int) { ++runs; });
  EXPECT_EQ(runs, 1);
}

TEST(ShardPoolTest, ParallelForReturnsResultsInIndexOrder) {
  for (int jobs : {1, 3, 8}) {
    const std::vector<size_t> squares = ParallelFor(
        100, [](size_t i) { return i * i; }, jobs);
    ASSERT_EQ(squares.size(), 100u);
    for (size_t i = 0; i < squares.size(); ++i) {
      EXPECT_EQ(squares[i], i * i) << "jobs " << jobs;
    }
    // bool results land in their own slots (no shared std::vector<bool>
    // words written from several threads).
    const std::vector<bool> odd = ParallelFor(
        37, [](size_t i) { return i % 2 == 1; }, jobs);
    for (size_t i = 0; i < odd.size(); ++i) {
      EXPECT_EQ(odd[i], i % 2 == 1) << "jobs " << jobs;
    }
  }
  EXPECT_TRUE(ParallelFor(0, [](size_t) { return 1; }, 4).empty());
}

TEST(ShardPoolTest, ParallelForNeverRunsMoreThreadsThanJobs) {
  // Three jobs on a 64-job budget run on at most three threads, the caller
  // among them.
  std::mutex mu;
  std::set<std::thread::id> threads;
  ParallelFor(
      3,
      [&](size_t) {
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
        return 0;
      },
      64);
  EXPECT_LE(threads.size(), 3u);
  EXPECT_GE(threads.size(), 1u);
}

TEST(ShardPoolTest, ParallelForRethrowsLowestFailingIndex) {
  for (int jobs : {1, 4}) {
    try {
      ParallelFor(
          40,
          [](size_t i) {
            if (i == 7 || i == 23) {
              throw std::runtime_error("index " + std::to_string(i));
            }
            return i;
          },
          jobs);
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "index 7") << "jobs " << jobs;
    }
  }
}

}  // namespace
}  // namespace rhythm
