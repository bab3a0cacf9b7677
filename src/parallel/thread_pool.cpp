#include "parallel/thread_pool.hpp"

#include <atomic>
#include <latch>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/check.hpp"

namespace fedbiad::parallel {

namespace {
// True on threads owned by any ThreadPool. parallel_for degrades to a serial
// loop on such threads: a worker blocking on a latch while the queue is full
// of other latch-waiting tasks would deadlock the pool.
thread_local bool is_pool_worker = false;
}  // namespace

std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = usable_cpus();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
}

void ThreadPool::worker_loop() {
  is_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  for_each_range(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::for_each_range(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (is_pool_worker) {  // see note on is_pool_worker above
    fn(0, n);
    return;
  }
  const std::size_t chunks = std::min(n, size());
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  std::latch done(static_cast<std::ptrdiff_t>(chunks));
  std::atomic<std::size_t> next{0};
  const std::size_t step = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    submit([&, step] {
      for (;;) {
        const std::size_t begin = next.fetch_add(step);
        if (begin >= n) break;
        fn(begin, std::min(n, begin + step));
      }
      done.count_down();
    });
  }
  done.wait();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (n * std::max<std::size_t>(grain, 1) < 2048 || is_pool_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::global().for_each_index(n, fn);
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain) {
  if (n == 0) return;
  if (n * std::max<std::size_t>(grain, 1) < 2048 || is_pool_worker) {
    fn(0, n);
    return;
  }
  ThreadPool::global().for_each_range(n, fn);
}

}  // namespace fedbiad::parallel
