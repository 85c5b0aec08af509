// A small fixed-size thread pool with parallel_for helpers.
//
// The experiment harness runs thousands of independent (workload, scheduler,
// repetition) cells; each cell derives its RNG from its index, so results are
// identical whether the pool has 1 or 64 workers. Parallelism is across
// problems only (svc::BatchEngine, metrics::run_repetitions): a single
// schedule call always runs on its caller's thread (docs/CONCURRENCY.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hdlts::util {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (0 = hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; tasks must not throw (std::terminate otherwise).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, count) across the pool, blocking until done.
/// Iterations are distributed in contiguous chunks to limit queue churn.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Chunked variant: body(begin, end) is invoked once per contiguous chunk
/// covering [0, count). Callers can hoist per-chunk setup (e.g. constructing
/// scheduler instances once per worker chunk instead of once per index).
void parallel_for_chunked(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace hdlts::util
