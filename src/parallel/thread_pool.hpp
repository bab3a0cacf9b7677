// A fixed-size thread pool used to train selected clients concurrently and
// to parallelize large tensor kernels (parallel_for).
//
// Design follows the C++ Core Guidelines concurrency rules: jthread-based
// workers joined by RAII, shared state confined to the queue and guarded by
// a single mutex, tasks communicate results through futures only.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace fedbiad::parallel {

/// CPUs the calling thread may run on: the size of its affinity mask where
/// the OS exposes one (a process pinned with taskset counts its pinned
/// CPUs, not the machine's), else std::thread::hardware_concurrency(); at
/// least 1.
[[nodiscard]] std::size_t usable_cpus();

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (0 → usable_cpus()).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn&>> {
    using Result = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> fut = task->get_future();
    {
      std::scoped_lock lock(mutex_);
      queue_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs `fn(i)` for i in [0, n), splitting the range across workers and
  /// blocking until every index has been processed. Safe to call from a
  /// non-worker thread only (no nested parallel_for).
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs `fn(begin, end)` over disjoint sub-ranges that exactly cover
  /// [0, n), blocking until all of them have been processed. One `fn` call
  /// per scheduled chunk — the batched counterpart of for_each_index that
  /// keeps per-index dispatch out of kernel inner loops.
  void for_each_range(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool sized to the machine; used by tensor kernels.
  /// A process must not fork() after its first pooled parallel_for: the
  /// child inherits the pool without its threads and would wait forever.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::jthread> workers_;
};

/// Convenience wrapper over the global pool. Falls back to a serial loop for
/// small `n` where task overhead would dominate. `grain` is the estimated
/// cost of one index in arbitrary units; `n * grain` decides serial vs pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

/// Range-based overload: `fn(begin, end)` is invoked over disjoint chunks
/// covering [0, n) exactly once each (possibly on the calling thread). The
/// callee owns the whole half-open range — this is the form every tensor
/// kernel uses, eliminating the per-index std::function call of the index
/// overload.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace fedbiad::parallel
