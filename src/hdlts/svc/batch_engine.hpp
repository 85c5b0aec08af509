// Concurrent batch-scheduling engine: many independent scheduling requests
// drained across a fixed set of worker threads (docs/CONCURRENCY.md). It is
// the library's one concurrency component: the serve daemon and the
// experiment harness (metrics::compare_schedulers) both run on it.
//
// The per-decision kernels are fast but serial — one workflow at a time on
// one thread. BatchEngine is the service layer on top: callers submit
// (problem, scheduler names, seed) requests and the engine's own threads
// drain them, each worker owning a recycled sim::Schedule, a per-scheduler
// instance cache (whose ScratchArena warms once), and a reusable error
// buffer — so the steady state stays zero-allocation per request
// (tests/alloc_test.cpp::BatchEngineSteadyState).
//
// Queueing: one bounded ring of queue_capacity slots under the engine mutex.
// Workers pop the oldest request, so requests start in submission order and
// an idle worker always finds the next one. Requests cost 0.1-20 ms each,
// so one lock per submit and one per pop is not a point of contention
// (docs/CONCURRENCY.md).
//
// Determinism: a request's result depends only on the request's content,
// never on worker interleaving — every scheduler in the registry is a pure
// function of the Problem. tests/batch_test.cpp enforces bit-identical
// schedules between the engine (any thread count) and a serial loop.
//
// Backpressure: the submission queue is bounded. try_submit() fails
// immediately when full; submit() blocks until space frees, optionally with
// a timeout. Both count rejected requests in the stats and in
// obs::MetricRegistry ("svc.batch.rejected").
//
// Shutdown: shutdown(Drain::kDrain) closes the queue and finishes every
// queued request; shutdown(Drain::kCancel) drops queued requests (counted
// as cancelled, no callback) but still lets in-flight work finish — threads
// cannot be interrupted mid-schedule. Either way it joins the worker threads
// exactly once. The destructor drains.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/sched/registry.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/sim/schedule.hpp"

namespace hdlts::obs {
class DecisionTrace;
}

namespace hdlts::svc {

/// Produces a fresh workload for a request seed (same shape as
/// metrics::WorkloadFactory, so experiment factories plug in directly).
using WorkloadFn = std::function<sim::Workload(std::uint64_t seed)>;

/// What a request asks the worker to run.
enum class BatchJob {
  kStatic,  ///< each named scheduler once over the problem (the default)
  kOnline,  ///< the compiled dynamic scheduler (core::OnlineHdlts) under the
            ///< request's fault plan; delivers a single "hdlts-online" result
  kStream,  ///< a workflow stream (core::StreamHdlts) over the request's
            ///< arrival list; delivers a single "hdlts-stream" result
};

/// One unit of work: a problem (given directly, or generated on the worker
/// from `generator` + `seed`), either scheduled by each named algorithm in
/// turn (kStatic) or run through the failure-injection path (kOnline).
/// Exactly one of `problem` / `generator` must be set; both are non-owning
/// and must outlive the request's completion.
struct BatchRequest {
  /// Caller-chosen key; results are correlated by it (ids need not be
  /// unique or dense, the engine only echoes them).
  std::uint64_t id = 0;
  const sim::Problem* problem = nullptr;
  const WorkloadFn* generator = nullptr;
  /// Passed to `generator` when set; echoed into the result either way
  /// (workload provenance for JSONL outputs).
  std::uint64_t seed = 0;
  /// Registry names, run in order; one result per entry. kStatic only (must
  /// be empty for kOnline jobs, which always run the HDLTS online path).
  std::vector<std::string> schedulers;
  BatchJob job = BatchJob::kStatic;
  /// Fault plan for kOnline jobs (by value: ring slots recycle the vector's
  /// capacity the same way they recycle the scheduler-name strings).
  std::vector<core::ProcFailure> failures;
  /// kStream jobs only: the arrival list (non-owning, must outlive the
  /// request's completion; problem/generator must both be null). Stream
  /// requests re-freeze the combined problem per run, so unlike
  /// kStatic/kOnline they are not zero-allocation in steady state.
  const std::vector<core::StreamArrival>* arrivals = nullptr;
  /// kStream jobs only: ITQ policy + PV kind for the stream run.
  core::StreamOptions stream_options;
};

/// Delivered to the result callback once per (request, scheduler), on the
/// worker thread that ran it. The pointers and views are valid ONLY for the
/// duration of the callback — the schedule is the worker's recycled buffer.
struct BatchResult {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  std::string_view scheduler;
  std::size_t scheduler_index = 0;
  bool ok = false;
  /// Failure description when !ok (unknown scheduler, generator throw,
  /// validation violation); empty on success.
  std::string_view error;
  double makespan = 0.0;
  /// Null when the request carried a generator that failed.
  const sim::Problem* problem = nullptr;
  /// Null when !ok or for kOnline jobs.
  const sim::Schedule* schedule = nullptr;
  /// kOnline jobs only: the dynamic run (the worker's recycled buffer, valid
  /// only for the duration of the callback). ok stays true even when the
  /// fault plan killed every processor — inspect online->completed.
  const core::OnlineResult* online = nullptr;
  /// kStream jobs only: the stream run (the worker's recycled buffer, valid
  /// only for the duration of the callback).
  const core::StreamResult* stream = nullptr;
};

/// Must be thread-safe: workers invoke it concurrently. Must not throw: it
/// runs on a worker thread, where an escaping exception ends the process.
using ResultFn = std::function<void(const BatchResult&)>;

struct BatchEngineOptions {
  /// Worker threads (0 = hardware concurrency, at least 1).
  std::size_t threads = 0;
  /// Submission ring capacity (>= 1). Submissions beyond it block/reject.
  std::size_t queue_capacity = 256;
  /// Run sim::Schedule::validate on every produced schedule; all violations
  /// surface joined in the failed result's error and are counted by the
  /// svc.batch.check_violations counter (costs time, on in tests). This is
  /// the static-oracle rung of the hierarchy in docs/TESTING.md; the
  /// dynamic paths have their own validators in check/.
  bool check_schedules = false;
  /// Optional decision-trace sink attached to every scheduler instance;
  /// must be thread-safe (obs::RecordingTrace is).
  obs::DecisionTrace* trace_sink = nullptr;
};

/// Monotone totals since construction. After shutdown:
///   submitted == completed + cancelled,  attempts == submitted + rejected.
struct BatchEngineStats {
  std::uint64_t submitted = 0;  ///< requests accepted into the queue
  std::uint64_t completed = 0;  ///< requests fully processed (incl. failures)
  std::uint64_t rejected = 0;   ///< submissions refused (full/timeout/closed)
  std::uint64_t cancelled = 0;  ///< queued requests dropped by kCancel
  std::uint64_t sched_failures = 0;  ///< per-scheduler failed results
  std::size_t queue_high_water = 0;  ///< max queue depth ever observed
};

class BatchEngine {
 public:
  /// `registry` and `on_result` are used from worker threads for the
  /// engine's whole lifetime; the registry must outlive the engine and its
  /// factories must be callable concurrently (stateless factories are).
  BatchEngine(const sched::Registry& registry, ResultFn on_result,
              BatchEngineOptions options = {});
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  std::size_t threads() const { return workers_.size(); }
  std::size_t queue_capacity() const { return capacity_; }

  /// Enqueues without blocking; false (and ++rejected) when the queue is
  /// full or the engine is shut down. Throws InvalidArgument for malformed
  /// requests (no problem/generator, empty scheduler list) — caller bugs,
  /// not backpressure.
  bool try_submit(const BatchRequest& request);

  /// Blocks until space frees; false (and ++rejected) only after shutdown.
  bool submit(const BatchRequest& request);

  /// Blocks up to `timeout`; false (and ++rejected) on timeout or shutdown.
  bool submit(const BatchRequest& request, std::chrono::nanoseconds timeout);

  /// Blocks until the queue is empty and no request is in flight. Does not
  /// close the queue — callers may keep submitting afterwards.
  void wait_idle();

  enum class Drain {
    kDrain,   ///< finish every queued request, then stop
    kCancel,  ///< drop queued requests (counted, no callback); in-flight
              ///< work still finishes
  };

  /// Closes the queue (subsequent submissions are rejected) and joins the
  /// worker threads. Idempotent and safe to call from several threads at
  /// once: every call returns after the one join; a later call's mode is
  /// ignored. Must not be called from the result callback.
  void shutdown(Drain mode = Drain::kDrain);

  BatchEngineStats stats() const;

 private:
  struct Worker;

  void worker_loop(Worker& worker);
  /// Blocks until the oldest queued request lands in `worker.request`;
  /// false once the engine is closed and drained.
  bool pop(Worker& worker);
  void process(Worker& worker, const BatchRequest& request);
  bool enqueue_locked(const BatchRequest& request);
  void note_request_done();
  void note_sched_failure();

  const sched::Registry& registry_;
  ResultFn on_result_;
  BatchEngineOptions options_;

  // Locking: mu_ guards the ring, closed_ and the condition variables; no
  // lock is held while a request runs or a callback is invoked. Counters
  // are atomics so stats() never needs mu_.
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  /// Copy-assigned, never destroyed: after one lap every slot's strings and
  /// vectors hold their high-water capacity, so queueing allocates nothing.
  std::vector<BatchRequest> ring_;  // guarded by mu_
  std::size_t head_ = 0;            // next slot to pop; guarded by mu_
  std::size_t size_ = 0;            // queued requests; guarded by mu_
  std::size_t capacity_ = 0;
  bool closed_ = false;                    // guarded by mu_
  std::atomic<std::size_t> in_flight_{0};  // popped, not yet completed
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> sched_failures_{0};
  std::atomic<std::size_t> high_water_{0};
  std::chrono::steady_clock::time_point first_submit_{};  // guarded by mu_
  bool saw_submit_ = false;                               // guarded by mu_

  std::vector<std::unique_ptr<Worker>> workers_;
  std::once_flag joined_;  // shutdown joins threads_ exactly once
  /// Declared last: each thread runs worker_loop over the members above.
  std::vector<std::thread> threads_;
};

}  // namespace hdlts::svc
