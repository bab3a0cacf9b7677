// Unit tests for the thread pool, parallel_for, and the OrderedResults
// ticketed completion queue behind the transport decode pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "parallel/ordered_results.hpp"
#include "parallel/thread_pool.hpp"

namespace fedbiad::parallel {
namespace {

TEST(ThreadPool, DefaultSizeMatchesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), usable_cpus());
}

#if defined(__linux__)
// A process pinned to one CPU must not time-slice a pool of
// hardware_concurrency() workers on it: the default size follows the
// affinity mask.
TEST(ThreadPool, DefaultSizeFollowsAffinity) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned_cpus = usable_cpus();
  const std::size_t pinned_size = ThreadPool().size();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned_cpus, 1u);
  EXPECT_EQ(pinned_size, 1u);
  EXPECT_EQ(usable_cpus(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each_index(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = running.fetch_add(1) + 1;
      int old_peak = peak.load();
      while (old_peak < now && !peak.compare_exchange_weak(old_peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      running.fetch_sub(1);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GT(peak.load(), 1);
}

TEST(ParallelFor, MatchesSerialResult) {
  std::vector<double> out(50000, 0.0);
  parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
  }
}

TEST(ParallelFor, SmallRangesRunSerially) {
  // Below the grain threshold the calling thread does the work itself.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  parallel_for(ids.size(), [&](std::size_t i) {
    ids[i] = std::this_thread::get_id();
  });
  for (const auto id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // A worker-thread nested parallel_for must degrade to serial instead of
  // waiting on the pool it occupies.
  std::atomic<int> total{0};
  parallel_for(
      ThreadPool::global().size() * 4,
      [&](std::size_t) {
        parallel_for(
            100000, [&](std::size_t) { total.fetch_add(1); }, 1000);
      },
      1 << 20);
  EXPECT_EQ(total.load(),
            static_cast<int>(ThreadPool::global().size() * 4 * 100000));
}

TEST(ParallelForRange, ChunksPartitionTheRange) {
  // The range overload must hand out disjoint [begin, end) chunks covering
  // [0, n) exactly once — every index incremented exactly one time.
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      64);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForRange, SmallAndNestedRunOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  std::size_t calls = 0;
  parallel_for(3, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    seen = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(seen, caller);

  // From a pool worker the range overload degrades to one serial call.
  std::atomic<std::size_t> nested_calls{0};
  parallel_for(
      ThreadPool::global().size() * 2,
      [&](std::size_t) {
        parallel_for(
            100000,
            [&](std::size_t begin, std::size_t end) {
              if (begin == 0 && end == 100000) nested_calls.fetch_add(1);
            },
            1000);
      },
      1 << 20);
  EXPECT_EQ(nested_calls.load(), ThreadPool::global().size() * 2);
}

TEST(OrderedResults, DrainDeliversInSubmissionOrderDespiteCompletionOrder) {
  // Earlier submissions sleep longer, so completion order is the reverse of
  // submission order — drain must still deliver 0..7 ascending.
  ThreadPool pool(4);
  OrderedResults<int> results(pool, 8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(results.try_submit([i] {
      std::this_thread::sleep_for(std::chrono::milliseconds((8 - i) * 3));
      return i;
    }));
  }
  EXPECT_TRUE(results.full());
  std::vector<int> drained;
  EXPECT_EQ(results.drain([&](int&& v) { drained.push_back(v); }), 8u);
  EXPECT_EQ(drained, std::vector<int>({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(results.pending(), 0u);
  EXPECT_FALSE(results.full());
}

TEST(OrderedResults, TrySubmitRefusesAtDepthWithoutConsuming) {
  ThreadPool pool(2);
  OrderedResults<int> results(pool, 2);
  ASSERT_TRUE(results.try_submit([] { return 1; }));
  ASSERT_TRUE(results.try_submit([] { return 2; }));
  // The refused callable must not run — parking hands the same work back.
  std::atomic<bool> ran{false};
  EXPECT_FALSE(results.try_submit([&] {
    ran.store(true);
    return 3;
  }));
  EXPECT_EQ(results.pending(), 2u);
  std::vector<int> drained;
  results.drain([&](int&& v) { drained.push_back(v); });
  EXPECT_EQ(drained, std::vector<int>({1, 2}));
  EXPECT_FALSE(ran.load());
  // After the drain the queue has room again.
  ASSERT_TRUE(results.try_submit([] { return 4; }));
  results.drain([&](int&& v) { drained.push_back(v); });
  EXPECT_EQ(drained, std::vector<int>({1, 2, 4}));
}

TEST(OrderedResults, DrainReadyStopsAtFirstUnfinishedJob) {
  ThreadPool pool(2);
  OrderedResults<int> results(pool, 4);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  ASSERT_TRUE(results.try_submit([] { return 1; }));
  ASSERT_TRUE(results.try_submit([open] {
    open.wait();
    return 2;
  }));
  ASSERT_TRUE(results.try_submit([] { return 3; }));
  // Job 3 may finish long before job 2, but drain_ready must never deliver
  // it early: it stops at the gated head.
  std::vector<int> got;
  while (got.empty()) {
    results.drain_ready([&](int&& v) { got.push_back(v); });
  }
  EXPECT_EQ(got, std::vector<int>({1}));
  EXPECT_EQ(results.pending(), 2u);
  gate.set_value();
  results.drain([&](int&& v) { got.push_back(v); });
  EXPECT_EQ(got, std::vector<int>({1, 2, 3}));
}

TEST(OrderedResults, MoveOnlyResultsAndExceptionsFlowThrough) {
  ThreadPool pool(2);
  OrderedResults<std::unique_ptr<int>> results(pool, 2);
  ASSERT_TRUE(results.try_submit([] { return std::make_unique<int>(7); }));
  std::vector<int> vals;
  results.drain([&](std::unique_ptr<int>&& p) { vals.push_back(*p); });
  EXPECT_EQ(vals, std::vector<int>({7}));
  // A throwing job surfaces at drain time, on the consumer thread.
  ASSERT_TRUE(results.try_submit([]() -> std::unique_ptr<int> {
    throw std::runtime_error("decode failed");
  }));
  EXPECT_THROW(results.drain([](std::unique_ptr<int>&&) {}),
               std::runtime_error);
  EXPECT_EQ(results.pending(), 0u);
}

TEST(ThreadPool, NestedForEachFromWorkerRunsSerially) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  auto fut = pool.submit([&] {
    // Direct nested use of the same pool from a worker.
    ThreadPool::global().for_each_index(10,
                                        [&](std::size_t) { count.fetch_add(1); });
  });
  fut.get();
  EXPECT_EQ(count.load(), 10);
}

}  // namespace
}  // namespace fedbiad::parallel
