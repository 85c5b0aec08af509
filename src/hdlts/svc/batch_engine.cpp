#include "hdlts/svc/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <utility>

#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/span.hpp"
#include "hdlts/util/error.hpp"

namespace hdlts::svc {

namespace {

/// Latency buckets in milliseconds: a 1k-task compiled schedule call sits
/// around a few ms, the fig-bench cells well under 1 ms.
constexpr std::array<double, 13> kLatencyBoundsMs = {
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    1000.0};

double elapsed_ms(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

/// Per-worker recycled state. Everything here reaches its high-water mark
/// during warm-up and is only rewound/overwritten afterwards, which is what
/// keeps the steady state allocation-free for direct-problem requests.
struct BatchEngine::Worker {
  struct CacheEntry {
    sched::SchedulerPtr scheduler;
    obs::Histogram* latency = nullptr;
  };

  BatchRequest request;          // pop target; strings keep their capacity
  /// Dynamic-request state: the compiled online scheduler owns its arena /
  /// recycled Schedule / committed buffers, and the result is a recycled
  /// buffer too, so steady-state kOnline requests allocate nothing
  /// (tests/alloc_test.cpp::BatchEngineOnlineSteadyState).
  core::OnlineHdlts online;
  core::OnlineResult online_result;
  obs::Histogram* online_latency = nullptr;
  /// Stream-request state, one scheduler per (policy, pv) combination seen
  /// by this worker. compile() re-freezes the combined problem per request,
  /// so stream jobs allocate; the instances are still recycled for their
  /// warm arenas and the result buffer.
  std::map<std::pair<int, int>, core::StreamHdlts> stream;
  core::StreamResult stream_result;
  obs::Histogram* stream_latency = nullptr;
  sim::Schedule schedule{0, 1};  // recycled via Schedule::reset
  std::string error;             // failure-path message buffer
  std::optional<sim::Workload> workload;  // generated-request storage
  std::optional<sim::Problem> problem;
  std::map<std::string, CacheEntry, std::less<>> cache;  // by scheduler name
};

BatchEngine::BatchEngine(const sched::Registry& registry, ResultFn on_result,
                         BatchEngineOptions options)
    : registry_(registry),
      on_result_(std::move(on_result)),
      options_(options) {
  if (options_.queue_capacity == 0) {
    throw InvalidArgument("BatchEngine queue_capacity must be >= 1");
  }
  if (!on_result_) {
    throw InvalidArgument("BatchEngine needs a result callback");
  }
  capacity_ = options_.queue_capacity;
  ring_.resize(capacity_);

  const std::size_t threads =
      options_.threads > 0
          ? options_.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(threads);
  try {
    for (const auto& worker : workers_) {
      threads_.emplace_back([this, w = worker.get()] { worker_loop(*w); });
    }
  } catch (...) {
    shutdown(Drain::kCancel);  // joins the threads already started
    throw;
  }
}

BatchEngine::~BatchEngine() { shutdown(Drain::kDrain); }

namespace {

// Live-depth gauges for the runtime monitor (svc.batch.queue_high_water only
// records the max). Function-local statics register once, during warm-up;
// set() is a relaxed store, keeping the steady state allocation-free.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::MetricRegistry::global().gauge("svc.batch.queue_depth");
  return g;
}

obs::Gauge& in_flight_gauge() {
  static obs::Gauge& g =
      obs::MetricRegistry::global().gauge("svc.batch.in_flight");
  return g;
}

}  // namespace

bool BatchEngine::enqueue_locked(const BatchRequest& request) {
  ring_[(head_ + size_) % capacity_] = request;
  const std::size_t total = ++size_;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!saw_submit_) {
    saw_submit_ = true;
    first_submit_ = std::chrono::steady_clock::now();
  }
  if (total > high_water_.load(std::memory_order_relaxed)) {
    high_water_.store(total, std::memory_order_relaxed);
    static obs::Gauge& high_water =
        obs::MetricRegistry::global().gauge("svc.batch.queue_high_water");
    high_water.record_max(static_cast<double>(total));
  }
  static obs::Counter& submitted =
      obs::MetricRegistry::global().counter("svc.batch.submitted");
  submitted.add(1);
  queue_depth_gauge().set(static_cast<double>(total));
  not_empty_.notify_one();
  return true;
}

namespace {

void check_request(const BatchRequest& request) {
  if (request.job == BatchJob::kStream) {
    if (request.problem != nullptr || request.generator != nullptr) {
      throw InvalidArgument(
          "kStream BatchRequest must leave problem/generator unset");
    }
    if (request.arrivals == nullptr || request.arrivals->empty()) {
      throw InvalidArgument("kStream BatchRequest needs >= 1 arrival");
    }
    if (!request.schedulers.empty()) {
      throw InvalidArgument(
          "kStream BatchRequest must leave schedulers empty");
    }
    return;
  }
  if (request.arrivals != nullptr) {
    throw InvalidArgument("arrivals are only valid on kStream requests");
  }
  if ((request.problem == nullptr) == (request.generator == nullptr)) {
    throw InvalidArgument(
        "BatchRequest needs exactly one of problem/generator");
  }
  if (request.job == BatchJob::kOnline) {
    if (!request.schedulers.empty()) {
      throw InvalidArgument(
          "kOnline BatchRequest must leave schedulers empty");
    }
  } else if (request.schedulers.empty()) {
    throw InvalidArgument("BatchRequest needs >= 1 scheduler name");
  }
}

}  // namespace

bool BatchEngine::try_submit(const BatchRequest& request) {
  check_request(request);
  std::lock_guard lock(mu_);
  if (closed_ || size_ >= capacity_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& rejected =
        obs::MetricRegistry::global().counter("svc.batch.rejected");
    rejected.add(1);
    return false;
  }
  return enqueue_locked(request);
}

bool BatchEngine::submit(const BatchRequest& request) {
  check_request(request);
  std::unique_lock lock(mu_);
  not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
  if (closed_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& rejected =
        obs::MetricRegistry::global().counter("svc.batch.rejected");
    rejected.add(1);
    return false;
  }
  return enqueue_locked(request);
}

bool BatchEngine::submit(const BatchRequest& request,
                         std::chrono::nanoseconds timeout) {
  check_request(request);
  std::unique_lock lock(mu_);
  const bool space = not_full_.wait_for(
      lock, timeout, [this] { return closed_ || size_ < capacity_; });
  if (!space || closed_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& rejected =
        obs::MetricRegistry::global().counter("svc.batch.rejected");
    rejected.add(1);
    return false;
  }
  return enqueue_locked(request);
}

void BatchEngine::wait_idle() {
  std::unique_lock lock(mu_);
  idle_.wait(lock, [this] {
    return size_ == 0 && in_flight_.load(std::memory_order_acquire) == 0;
  });
  const std::uint64_t completed =
      completed_.load(std::memory_order_relaxed);
  if (saw_submit_ && completed > 0) {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      first_submit_)
            .count();
    if (secs > 0.0) {
      static obs::Gauge& rps =
          obs::MetricRegistry::global().gauge("svc.batch.throughput_rps");
      rps.set(static_cast<double>(completed) / secs);
    }
  }
}

void BatchEngine::shutdown(Drain mode) {
  {
    std::lock_guard lock(mu_);
    if (!closed_) {
      closed_ = true;
      if (mode == Drain::kCancel && size_ > 0) {
        // The slots just stay for reuse; popped requests still finish.
        cancelled_.fetch_add(size_, std::memory_order_relaxed);
        static obs::Counter& cancelled =
            obs::MetricRegistry::global().counter("svc.batch.cancelled");
        cancelled.add(size_);
        size_ = 0;
        head_ = 0;
        queue_depth_gauge().set(0.0);
      }
      not_empty_.notify_all();
      not_full_.notify_all();
      if (size_ == 0 && in_flight_.load(std::memory_order_acquire) == 0) {
        idle_.notify_all();
      }
    }
  }
  // Workers see closed_ with an empty ring and leave their loops.
  std::call_once(joined_, [this] {
    for (std::thread& thread : threads_) thread.join();
  });
  wait_idle();  // no-op by now; refreshes the throughput gauge
}

BatchEngineStats BatchEngine::stats() const {
  BatchEngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.sched_failures = sched_failures_.load(std::memory_order_relaxed);
  s.queue_high_water = high_water_.load(std::memory_order_relaxed);
  return s;
}

bool BatchEngine::pop(Worker& worker) {
  std::unique_lock lock(mu_);
  not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
  if (size_ == 0) return false;  // closed and drained (or cancelled)
  // Copy-assign keeps worker.request's strings/vector at capacity.
  worker.request = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  // Claim before releasing the queue slot so wait_idle can never observe
  // size == 0 && in_flight == 0 while a request is between the two.
  const std::size_t flying =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const std::size_t queued = --size_;
  lock.unlock();
  in_flight_gauge().set(static_cast<double>(flying));
  queue_depth_gauge().set(static_cast<double>(queued));
  not_full_.notify_one();
  return true;
}

void BatchEngine::note_request_done() {
  completed_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& completed =
      obs::MetricRegistry::global().counter("svc.batch.completed");
  completed.add(1);
  const std::size_t was_flying =
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  in_flight_gauge().set(static_cast<double>(was_flying - 1));
  if (was_flying == 1) {
    std::lock_guard lock(mu_);  // pairs with the wait_idle predicate
    if (size_ == 0) idle_.notify_all();
  }
}

void BatchEngine::worker_loop(Worker& worker) {
  while (pop(worker)) {
    process(worker, worker.request);
    note_request_done();
  }
}

void BatchEngine::process(Worker& worker, const BatchRequest& request) {
  const obs::TimingSpan span("svc.batch.request");

  if (request.job == BatchJob::kStream) {
    // Stream request: freeze the arrival list into one combined problem and
    // schedule it; one "hdlts-stream" result. The StreamHdlts instance is
    // recycled per (policy, pv) combination for its warm arena.
    BatchResult result;
    result.id = request.id;
    result.seed = request.seed;
    result.scheduler = "hdlts-stream";
    try {
      if (worker.stream_latency == nullptr) {
        worker.stream_latency = &obs::MetricRegistry::global().histogram(
            "svc.batch.latency_ms.hdlts-stream", kLatencyBoundsMs);
      }
      const auto key =
          std::make_pair(static_cast<int>(request.stream_options.policy),
                         static_cast<int>(request.stream_options.pv));
      auto it = worker.stream.find(key);
      if (it == worker.stream.end()) {
        it = worker.stream
                 .emplace(key, core::StreamHdlts(request.stream_options))
                 .first;
      }
      const auto t0 = std::chrono::steady_clock::now();
      it->second.compile(*request.arrivals);
      it->second.run_into(worker.stream_result);
      const auto t1 = std::chrono::steady_clock::now();
      worker.stream_latency->observe(elapsed_ms(t0, t1));
      result.ok = true;
      result.makespan = worker.stream_result.makespan;
      result.stream = &worker.stream_result;
    } catch (const std::exception& e) {
      worker.error = e.what();
      result.error = worker.error;
      note_sched_failure();
    }
    on_result_(result);
    return;
  }

  const sim::Problem* problem = request.problem;
  if (request.generator != nullptr) {
    try {
      worker.problem.reset();  // points into the workload being replaced
      worker.workload.emplace((*request.generator)(request.seed));
      worker.problem.emplace(*worker.workload);
      problem = &*worker.problem;
    } catch (const std::exception& e) {
      worker.error = e.what();
      if (request.job == BatchJob::kOnline) {
        BatchResult result;
        result.id = request.id;
        result.seed = request.seed;
        result.scheduler = "hdlts-online";
        result.error = worker.error;
        note_sched_failure();
        on_result_(result);
        return;
      }
      for (std::size_t i = 0; i < request.schedulers.size(); ++i) {
        BatchResult result;
        result.id = request.id;
        result.seed = request.seed;
        result.scheduler = request.schedulers[i];
        result.scheduler_index = i;
        result.error = worker.error;
        note_sched_failure();
        on_result_(result);
      }
      return;
    }
  }

  if (request.job == BatchJob::kOnline) {
    // Dynamic request: one compiled failure-injection run, one result. The
    // worker's OnlineHdlts and OnlineResult are recycled across requests, so
    // the steady state allocates nothing (the request's fault-plan vector
    // already lives in the recycled ring slot).
    BatchResult result;
    result.id = request.id;
    result.seed = request.seed;
    result.scheduler = "hdlts-online";
    result.problem = problem;
    try {
      if (worker.online_latency == nullptr) {
        worker.online_latency = &obs::MetricRegistry::global().histogram(
            "svc.batch.latency_ms.hdlts-online", kLatencyBoundsMs);
      }
      const auto t0 = std::chrono::steady_clock::now();
      worker.online.run_into(*problem, request.failures,
                             worker.online_result);
      const auto t1 = std::chrono::steady_clock::now();
      worker.online_latency->observe(elapsed_ms(t0, t1));
      result.ok = true;
      result.makespan = worker.online_result.makespan;
      result.online = &worker.online_result;
    } catch (const std::exception& e) {
      worker.error = e.what();
      result.error = worker.error;
      note_sched_failure();
    }
    on_result_(result);
    return;
  }

  for (std::size_t i = 0; i < request.schedulers.size(); ++i) {
    const std::string& name = request.schedulers[i];
    BatchResult result;
    result.id = request.id;
    result.seed = request.seed;
    result.scheduler = name;
    result.scheduler_index = i;
    result.problem = problem;
    try {
      auto it = worker.cache.find(name);
      if (it == worker.cache.end()) {
        // Once per (worker, scheduler name): instantiate and configure the
        // scheduler and register its latency histogram. Steady-state
        // requests only hit the map lookup above.
        Worker::CacheEntry entry;
        entry.scheduler = registry_.make(name);
        entry.scheduler->set_trace_sink(options_.trace_sink);
        entry.latency = &obs::MetricRegistry::global().histogram(
            "svc.batch.latency_ms." + name, kLatencyBoundsMs);
        it = worker.cache.emplace(name, std::move(entry)).first;
      }
      const auto t0 = std::chrono::steady_clock::now();
      it->second.scheduler->schedule_into(*problem, worker.schedule);
      const auto t1 = std::chrono::steady_clock::now();
      it->second.latency->observe(elapsed_ms(t0, t1));
      if (options_.check_schedules) {
        const auto violations = worker.schedule.validate(*problem);
        if (!violations.empty()) {
          // Report every violation, not just the first — a corrupted
          // schedule usually trips several invariants and the full list is
          // what identifies the bug.
          worker.error = violations.front();
          for (std::size_t v = 1; v < violations.size(); ++v) {
            worker.error += "; " + violations[v];
          }
          result.error = worker.error;
          static obs::Counter& check_violations =
              obs::MetricRegistry::global().counter(
                  "svc.batch.check_violations");
          check_violations.add(violations.size());
          note_sched_failure();
          on_result_(result);
          continue;
        }
      }
      result.ok = true;
      result.makespan = worker.schedule.makespan();
      result.schedule = &worker.schedule;
    } catch (const std::exception& e) {
      worker.error = e.what();
      result.error = worker.error;
      note_sched_failure();
    }
    on_result_(result);
  }
}

void BatchEngine::note_sched_failure() {
  sched_failures_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& failures =
      obs::MetricRegistry::global().counter("svc.batch.sched_failures");
  failures.add(1);
}

}  // namespace hdlts::svc
