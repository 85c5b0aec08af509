#include "hdlts/util/thread_pool.hpp"

#include <algorithm>

namespace hdlts::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(pool, count,
                       [&body](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) body(i);
                       });
}

void parallel_for_chunked(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t chunks = std::min(count, pool.size() * 4);
  const std::size_t chunk = (count + chunks - 1) / chunks;
  for (std::size_t begin = 0; begin < count; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, count);
    pool.submit([begin, end, &body] { body(begin, end); });
  }
  pool.wait_idle();
}

}  // namespace hdlts::util
