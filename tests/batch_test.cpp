// svc::BatchEngine tests: bit-identical schedules vs serial execution,
// backpressure rejection, shutdown with in-flight work, and metrics
// accounting (submitted == completed + cancelled, attempts == submitted +
// rejected). The BatchStress suite runs the same engine under contention
// (bounded queue, multiple producers) and is sized by
// HDLTS_BATCH_STRESS_REQUESTS so the CI ThreadSanitizer job can scale it up.
#include "hdlts/svc/batch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts {
namespace {

using svc::BatchEngine;
using svc::BatchEngineOptions;
using svc::BatchRequest;
using svc::BatchResult;

sim::Workload make_workload(std::size_t tasks, std::size_t procs,
                            std::uint64_t seed) {
  workload::RandomDagParams params;
  params.num_tasks = tasks;
  params.costs.num_procs = procs;
  return workload::random_workload(params, seed);
}

/// Every placement triple, duplicate, and the makespan must match exactly —
/// "deterministic" for the engine means bit-identical to a serial run, not
/// merely equal makespans.
void expect_bit_identical(const sim::Schedule& a, const sim::Schedule& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.makespan(), b.makespan());
  for (graph::TaskId v = 0; v < a.num_tasks(); ++v) {
    const sim::Placement& pa = a.placement(v);
    const sim::Placement& pb = b.placement(v);
    EXPECT_EQ(pa.proc, pb.proc) << "task " << v;
    EXPECT_EQ(pa.start, pb.start) << "task " << v;
    EXPECT_EQ(pa.finish, pb.finish) << "task " << v;
    const auto da = a.duplicates(v);
    const auto db = b.duplicates(v);
    ASSERT_EQ(da.size(), db.size()) << "task " << v;
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].proc, db[i].proc) << "task " << v << " dup " << i;
      EXPECT_EQ(da[i].start, db[i].start) << "task " << v << " dup " << i;
      EXPECT_EQ(da[i].finish, db[i].finish) << "task " << v << " dup " << i;
    }
  }
}

/// Thread-safe collector that copies every result (schedule included) so
/// the test can compare after shutdown. Keyed by (request id, scheduler
/// index); duplicate keys fail the test.
struct Collector {
  struct Entry {
    bool ok = false;
    std::string scheduler;
    std::string error;
    double makespan = 0.0;
    sim::Schedule schedule{0, 1};
  };

  svc::ResultFn callback() {
    return [this](const BatchResult& r) {
      Entry entry;
      entry.ok = r.ok;
      entry.scheduler = std::string(r.scheduler);
      entry.error = std::string(r.error);
      entry.makespan = r.makespan;
      if (r.schedule != nullptr) entry.schedule = *r.schedule;
      std::lock_guard lock(mu);
      const auto [it, inserted] =
          entries.emplace(std::pair{r.id, r.scheduler_index},
                          std::move(entry));
      EXPECT_TRUE(inserted) << "duplicate result for id " << r.id;
      (void)it;
    };
  }

  std::mutex mu;
  std::map<std::pair<std::uint64_t, std::size_t>, Entry> entries;
};

const std::vector<std::string> kSchedulers = {"hdlts", "heft", "cpop"};

TEST(BatchEngine, BitIdenticalToSerialOver100Problems) {
  constexpr std::size_t kProblems = 100;
  std::vector<sim::Workload> workloads;
  std::vector<sim::Problem> problems;
  workloads.reserve(kProblems);
  problems.reserve(kProblems);
  for (std::size_t i = 0; i < kProblems; ++i) {
    const std::size_t tasks = 20 + (i * 7) % 120;
    const std::size_t procs = 2 + i % 7;
    workloads.push_back(
        make_workload(tasks, procs, util::derive_seed(1234, i)));
    problems.emplace_back(workloads.back());
  }

  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngineOptions options;
  options.threads = 4;
  options.queue_capacity = 16;
  {
    BatchEngine engine(registry, collector.callback(), options);
    ASSERT_EQ(engine.threads(), 4u);
    BatchRequest request;
    request.schedulers = kSchedulers;
    for (std::size_t i = 0; i < kProblems; ++i) {
      request.id = i;
      request.problem = &problems[i];
      ASSERT_TRUE(engine.submit(request));
    }
    engine.shutdown(BatchEngine::Drain::kDrain);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, kProblems);
    EXPECT_EQ(stats.completed, kProblems);
    EXPECT_EQ(stats.sched_failures, 0u);
  }

  // Serial reference: the same recycled-schedule entry point the engine
  // workers use, one scheduler instance per name.
  ASSERT_EQ(collector.entries.size(), kProblems * kSchedulers.size());
  for (std::size_t si = 0; si < kSchedulers.size(); ++si) {
    const auto scheduler = registry.make(kSchedulers[si]);
    sim::Schedule serial(0, 1);
    for (std::size_t i = 0; i < kProblems; ++i) {
      scheduler->schedule_into(problems[i], serial);
      const auto it = collector.entries.find({i, si});
      ASSERT_NE(it, collector.entries.end());
      ASSERT_TRUE(it->second.ok) << it->second.error;
      SCOPED_TRACE(kSchedulers[si] + " problem " + std::to_string(i));
      expect_bit_identical(serial, it->second.schedule);
    }
  }
}

TEST(BatchEngine, DeterministicAcrossThreadCounts) {
  constexpr std::size_t kProblems = 24;
  std::vector<sim::Workload> workloads;
  std::vector<sim::Problem> problems;
  for (std::size_t i = 0; i < kProblems; ++i) {
    workloads.push_back(make_workload(30 + i * 5, 3 + i % 4,
                                      util::derive_seed(77, i)));
  }
  for (const auto& w : workloads) problems.emplace_back(w);

  const sched::Registry registry = core::default_registry();
  auto run = [&](std::size_t threads) {
    Collector collector;
    BatchEngineOptions options;
    options.threads = threads;
    options.queue_capacity = 8;
    BatchEngine engine(registry, collector.callback(), options);
    BatchRequest request;
    request.schedulers = kSchedulers;
    for (std::size_t i = 0; i < kProblems; ++i) {
      request.id = i;
      request.problem = &problems[i];
      EXPECT_TRUE(engine.submit(request));
    }
    engine.shutdown(BatchEngine::Drain::kDrain);
    std::map<std::pair<std::uint64_t, std::size_t>, double> makespans;
    for (const auto& [key, entry] : collector.entries) {
      EXPECT_TRUE(entry.ok);
      makespans[key] = entry.makespan;
    }
    return makespans;
  };

  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(one, four);
}

TEST(BatchEngine, GeneratedRequestsMatchDirectProblems) {
  const svc::WorkloadFn generator = [](std::uint64_t seed) {
    return make_workload(60, 4, seed);
  };
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngineOptions options;
  options.threads = 3;
  {
    BatchEngine engine(registry, collector.callback(), options);
    BatchRequest request;
    request.generator = &generator;
    request.schedulers = kSchedulers;
    for (std::size_t i = 0; i < 16; ++i) {
      request.id = i;
      request.seed = util::derive_seed(9, i);
      ASSERT_TRUE(engine.submit(request));
    }
    engine.shutdown(BatchEngine::Drain::kDrain);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const sim::Workload w = generator(util::derive_seed(9, i));
    const sim::Problem problem(w);
    for (std::size_t si = 0; si < kSchedulers.size(); ++si) {
      const auto scheduler = registry.make(kSchedulers[si]);
      const sim::Schedule serial = scheduler->schedule(problem);
      const auto it = collector.entries.find({i, si});
      ASSERT_NE(it, collector.entries.end());
      ASSERT_TRUE(it->second.ok) << it->second.error;
      EXPECT_EQ(serial.makespan(), it->second.makespan);
    }
  }
}

/// A generator whose first call parks its worker until release() — the
/// deterministic way to hold the (single-threaded) engine busy while the
/// test fills the queue behind it.
struct GateGenerator {
  GateGenerator() : fn([this](std::uint64_t seed) {
    entered.set_value();
    release_future.wait();
    return make_workload(20, 2, seed);
  }) {}

  void wait_entered() { entered.get_future().wait(); }
  void release() { release_promise.set_value(); }

  std::promise<void> entered;
  std::promise<void> release_promise;
  std::shared_future<void> release_future{release_promise.get_future()};
  svc::WorkloadFn fn;
};

TEST(BatchEngine, BackpressureRejectsWhenQueueFull) {
  const sim::Workload w = make_workload(25, 3, 5);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  GateGenerator gate;
  Collector collector;
  BatchEngineOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  BatchEngine engine(registry, collector.callback(), options);

  BatchRequest blocked;
  blocked.id = 100;
  blocked.generator = &gate.fn;
  blocked.schedulers = {"heft"};
  ASSERT_TRUE(engine.submit(blocked));
  gate.wait_entered();  // the only worker is now parked inside the request

  BatchRequest direct;
  direct.problem = &problem;
  direct.schedulers = {"heft"};
  direct.id = 0;
  ASSERT_TRUE(engine.try_submit(direct));
  direct.id = 1;
  ASSERT_TRUE(engine.try_submit(direct));

  // Queue full (capacity 2) and the worker is parked: both submission
  // flavors must reject instead of deadlocking.
  direct.id = 2;
  EXPECT_FALSE(engine.try_submit(direct));
  EXPECT_FALSE(engine.submit(direct, std::chrono::milliseconds(20)));
  EXPECT_EQ(engine.stats().rejected, 2u);
  EXPECT_EQ(engine.stats().queue_high_water, 2u);

  gate.release();
  engine.wait_idle();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(collector.entries.size(), 3u);
}

TEST(BatchEngine, ShutdownDrainFinishesQueuedWork) {
  const sim::Workload w = make_workload(40, 4, 3);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngineOptions options;
  options.threads = 2;
  options.queue_capacity = 64;
  BatchEngine engine(registry, collector.callback(), options);
  BatchRequest request;
  request.problem = &problem;
  request.schedulers = kSchedulers;
  for (std::size_t i = 0; i < 32; ++i) {
    request.id = i;
    ASSERT_TRUE(engine.submit(request));
  }
  engine.shutdown(BatchEngine::Drain::kDrain);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.completed, 32u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(collector.entries.size(), 32u * kSchedulers.size());
}

TEST(BatchEngine, ShutdownCancelDropsQueuedButFinishesInFlight) {
  const sim::Workload w = make_workload(25, 3, 9);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  GateGenerator gate;
  Collector collector;
  BatchEngineOptions options;
  options.threads = 1;
  options.queue_capacity = 8;
  BatchEngine engine(registry, collector.callback(), options);

  BatchRequest blocked;
  blocked.id = 50;
  blocked.generator = &gate.fn;
  blocked.schedulers = {"heft"};
  ASSERT_TRUE(engine.submit(blocked));
  gate.wait_entered();

  BatchRequest direct;
  direct.problem = &problem;
  direct.schedulers = {"heft"};
  for (std::size_t i = 0; i < 3; ++i) {
    direct.id = i;
    ASSERT_TRUE(engine.try_submit(direct));
  }

  // shutdown(kCancel) blocks until the in-flight gate request finishes, so
  // the gate must open from another thread — once the cancellation has
  // provably happened (cancelled == 3).
  std::thread releaser([&] {
    while (engine.stats().cancelled != 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate.release();
  });
  engine.shutdown(BatchEngine::Drain::kCancel);
  releaser.join();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 1u);  // only the in-flight request ran
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled);
  ASSERT_EQ(collector.entries.size(), 1u);
  EXPECT_EQ(collector.entries.begin()->first.first, 50u);
}

TEST(BatchEngine, SubmissionsAfterShutdownAreRejected) {
  const sim::Workload w = make_workload(20, 2, 1);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngine engine(registry, collector.callback(), {});
  engine.shutdown();
  BatchRequest request;
  request.problem = &problem;
  request.schedulers = {"heft"};
  EXPECT_FALSE(engine.try_submit(request));
  EXPECT_FALSE(engine.submit(request));
  EXPECT_FALSE(engine.submit(request, std::chrono::milliseconds(5)));
  EXPECT_EQ(engine.stats().rejected, 3u);
  EXPECT_EQ(engine.stats().submitted, 0u);
}

TEST(BatchEngine, ZeroThreadsMeansHardwareConcurrency) {
  // threads = 0 asks for one worker per hardware thread, at least one, and
  // each is a live thread: a barrier generator holds every request until
  // threads() distinct workers are inside one at once.
  const std::size_t want =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::mutex mu;
  std::condition_variable all_in;
  std::set<std::thread::id> inside;  // guarded by mu
  bool timed_out = false;            // guarded by mu
  const svc::WorkloadFn barrier = [&](std::uint64_t seed) {
    std::unique_lock lock(mu);
    inside.insert(std::this_thread::get_id());
    all_in.notify_all();
    if (!all_in.wait_for(lock, std::chrono::seconds(10),
                         [&] { return inside.size() >= want; })) {
      timed_out = true;
    }
    return make_workload(10, 2, seed);
  };
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngineOptions options;
  options.threads = 0;
  BatchEngine engine(registry, collector.callback(), options);
  ASSERT_EQ(engine.threads(), want);
  BatchRequest request;
  request.generator = &barrier;
  request.schedulers = {"heft"};
  for (std::size_t i = 0; i < want; ++i) {
    request.id = i;
    ASSERT_TRUE(engine.submit(request));
  }
  engine.shutdown();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(inside.size(), want);
  EXPECT_EQ(collector.entries.size(), want);
}

TEST(BatchEngine, OneThreadRunsEveryRequestInOrderOnItsWorker) {
  // threads = 1 is the harness default: one owned worker, not the
  // submitting thread, runs every request, oldest first.
  std::mutex mu;
  std::vector<std::pair<std::thread::id, std::uint64_t>> runs;  // guarded
  const svc::WorkloadFn recording = [&](std::uint64_t seed) {
    {
      std::lock_guard lock(mu);
      runs.emplace_back(std::this_thread::get_id(), seed);
    }
    return make_workload(10, 2, seed);
  };
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngineOptions options;
  options.threads = 1;
  options.queue_capacity = 4;  // smaller than the batch: submit blocks
  BatchEngine engine(registry, collector.callback(), options);
  ASSERT_EQ(engine.threads(), 1u);
  BatchRequest request;
  request.generator = &recording;
  request.schedulers = {"heft"};
  for (std::uint64_t i = 0; i < 20; ++i) {
    request.id = i;
    request.seed = 100 + i;
    ASSERT_TRUE(engine.submit(request));
  }
  engine.shutdown();
  ASSERT_EQ(runs.size(), 20u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].first, runs[0].first) << "request " << i;
    EXPECT_EQ(runs[i].second, 100 + i) << "request " << i;
  }
  EXPECT_NE(runs[0].first, std::this_thread::get_id());
  EXPECT_EQ(collector.entries.size(), 20u);
}

TEST(BatchEngine, ConcurrentShutdownsJoinOnce) {
  // Two threads shut down while a request is in flight: neither returns
  // before it finishes, and the workers are joined once between them.
  const sched::Registry registry = core::default_registry();
  GateGenerator gate;
  Collector collector;
  BatchEngineOptions options;
  options.threads = 2;
  BatchEngine engine(registry, collector.callback(), options);
  BatchRequest blocked;
  blocked.id = 7;
  blocked.generator = &gate.fn;
  blocked.schedulers = {"heft"};
  ASSERT_TRUE(engine.submit(blocked));
  gate.wait_entered();
  std::atomic<int> returned{0};
  std::thread drain([&] {
    engine.shutdown(BatchEngine::Drain::kDrain);
    returned.fetch_add(1);
  });
  std::thread cancel([&] {
    engine.shutdown(BatchEngine::Drain::kCancel);
    returned.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(returned.load(), 0);
  gate.release();
  drain.join();
  cancel.join();
  EXPECT_EQ(returned.load(), 2);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled);
  EXPECT_EQ(collector.entries.size(), 1u);
}

TEST(BatchEngine, MalformedRequestsThrow) {
  const sim::Workload w = make_workload(20, 2, 1);
  const sim::Problem problem(w);
  const svc::WorkloadFn generator = [](std::uint64_t seed) {
    return make_workload(20, 2, seed);
  };
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngine engine(registry, collector.callback(), {});

  BatchRequest neither;
  neither.schedulers = {"heft"};
  EXPECT_THROW(engine.try_submit(neither), InvalidArgument);

  BatchRequest both;
  both.problem = &problem;
  both.generator = &generator;
  both.schedulers = {"heft"};
  EXPECT_THROW(engine.try_submit(both), InvalidArgument);

  BatchRequest no_schedulers;
  no_schedulers.problem = &problem;
  EXPECT_THROW(engine.try_submit(no_schedulers), InvalidArgument);

  EXPECT_EQ(engine.stats().submitted, 0u);
  EXPECT_EQ(engine.stats().rejected, 0u);
}

TEST(BatchEngine, UnknownSchedulerFailsThatResultOnly) {
  const sim::Workload w = make_workload(30, 3, 2);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngine engine(registry, collector.callback(), {});
  BatchRequest request;
  request.id = 7;
  request.problem = &problem;
  request.schedulers = {"heft", "definitely-not-a-scheduler", "cpop"};
  ASSERT_TRUE(engine.submit(request));
  engine.shutdown();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.sched_failures, 1u);
  ASSERT_EQ(collector.entries.size(), 3u);
  EXPECT_TRUE(collector.entries.at({7, 0}).ok);
  EXPECT_FALSE(collector.entries.at({7, 1}).ok);
  EXPECT_FALSE(collector.entries.at({7, 1}).error.empty());
  EXPECT_TRUE(collector.entries.at({7, 2}).ok);
}

TEST(BatchEngine, OnlineJobsMatchDirectRuns) {
  // A kOnline request must deliver exactly the result core::run_online
  // produces for the same (problem, fault plan), regardless of which worker
  // picks it up or how warm that worker's recycled online state is.
  const sim::Workload w = make_workload(40, 4, 5);
  const sim::Problem problem(w);
  const std::vector<std::vector<core::ProcFailure>> plans = {
      {},
      {{1, 10.0}},
      {{0, 5.0}, {2, 20.0}},
  };
  const sched::Registry registry = core::default_registry();
  std::mutex mu;
  std::map<std::uint64_t, std::pair<bool, double>> got;  // id -> (ok, mk)
  std::map<std::uint64_t, std::size_t> lost;
  BatchEngineOptions options;
  options.threads = 2;
  BatchEngine engine(
      registry,
      [&](const BatchResult& r) {
        EXPECT_EQ(r.scheduler, "hdlts-online");
        EXPECT_EQ(r.schedule, nullptr);
        ASSERT_NE(r.online, nullptr);
        std::lock_guard lock(mu);
        got[r.id] = {r.ok, r.makespan};
        lost[r.id] = r.online->lost_executions;
      },
      options);
  for (std::size_t round = 0; round < 3; ++round) {  // warm + reuse
    for (std::size_t i = 0; i < plans.size(); ++i) {
      BatchRequest request;
      request.id = round * plans.size() + i;
      request.problem = &problem;
      request.job = svc::BatchJob::kOnline;
      request.failures = plans[i];
      ASSERT_TRUE(engine.submit(request));
    }
  }
  engine.shutdown();
  ASSERT_EQ(got.size(), 9u);
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const core::OnlineResult want = core::run_online(w, plans[i]);
      const std::uint64_t id = round * plans.size() + i;
      EXPECT_TRUE(got.at(id).first);
      EXPECT_EQ(got.at(id).second, want.makespan) << "id " << id;
      EXPECT_EQ(lost.at(id), want.lost_executions) << "id " << id;
    }
  }
}

TEST(BatchEngine, StreamJobsMatchDirectRuns) {
  // A kStream request must deliver exactly the result core::run_stream
  // produces for the same arrival list, under both ITQ policies, regardless
  // of which worker picks it up or how warm its recycled stream state is.
  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({make_workload(20, 3, 1), 0.0});
  arrivals.push_back({make_workload(15, 3, 2), 12.5});
  arrivals.push_back({make_workload(25, 3, 3), 30.0});
  std::vector<core::StreamOptions> variants(2);
  variants[0].policy = core::StreamPolicy::kHdltsPv;
  variants[1].policy = core::StreamPolicy::kFifoEft;
  const sched::Registry registry = core::default_registry();
  std::mutex mu;
  std::map<std::uint64_t, core::StreamResult> got;
  BatchEngineOptions options;
  options.threads = 2;
  BatchEngine engine(
      registry,
      [&](const BatchResult& r) {
        EXPECT_EQ(r.scheduler, "hdlts-stream");
        EXPECT_TRUE(r.ok) << r.error;
        ASSERT_NE(r.stream, nullptr);
        std::lock_guard lock(mu);
        got[r.id] = *r.stream;  // copy the worker's recycled buffer
      },
      options);
  for (std::size_t round = 0; round < 2; ++round) {  // warm + reuse
    for (std::size_t v = 0; v < variants.size(); ++v) {
      BatchRequest request;
      request.id = round * variants.size() + v;
      request.job = svc::BatchJob::kStream;
      request.arrivals = &arrivals;
      request.stream_options = variants[v];
      ASSERT_TRUE(engine.submit(request));
    }
  }
  engine.shutdown();
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const core::StreamResult want = core::run_stream(arrivals, variants[v]);
      const core::StreamResult& have = got.at(round * variants.size() + v);
      EXPECT_EQ(have.makespan, want.makespan);
      EXPECT_EQ(have.finish, want.finish);
      EXPECT_EQ(have.flow_time, want.flow_time);
      ASSERT_EQ(have.executions.size(), want.executions.size());
      for (std::size_t i = 0; i < want.executions.size(); ++i) {
        EXPECT_EQ(have.executions[i].workflow, want.executions[i].workflow);
        EXPECT_EQ(have.executions[i].task, want.executions[i].task);
        EXPECT_EQ(have.executions[i].proc, want.executions[i].proc);
        EXPECT_EQ(have.executions[i].start, want.executions[i].start);
        EXPECT_EQ(have.executions[i].finish, want.executions[i].finish);
      }
    }
  }
}

TEST(BatchEngine, StreamJobValidation) {
  const sched::Registry registry = core::default_registry();
  BatchEngine engine(registry, [](const BatchResult&) {}, {});
  const sim::Workload w = make_workload(10, 3, 1);
  const sim::Problem problem(w);
  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({make_workload(10, 3, 2), 0.0});

  BatchRequest request;
  request.job = svc::BatchJob::kStream;
  request.arrivals = &arrivals;
  request.problem = &problem;  // kStream must leave problem unset
  EXPECT_THROW(engine.submit(request), InvalidArgument);

  request.problem = nullptr;
  request.arrivals = nullptr;  // and needs arrivals
  EXPECT_THROW(engine.submit(request), InvalidArgument);

  request.job = svc::BatchJob::kStatic;
  request.problem = &problem;
  request.schedulers = {"heft"};
  request.arrivals = &arrivals;  // arrivals only valid on kStream
  EXPECT_THROW(engine.submit(request), InvalidArgument);
}

TEST(BatchEngine, OnlineJobWithSchedulerNamesThrows) {
  const sched::Registry registry = core::default_registry();
  BatchEngine engine(registry, [](const BatchResult&) {}, {});
  const sim::Workload w = make_workload(10, 3, 1);
  const sim::Problem problem(w);
  BatchRequest request;
  request.problem = &problem;
  request.job = svc::BatchJob::kOnline;
  request.schedulers = {"heft"};
  EXPECT_THROW(engine.submit(request), InvalidArgument);
}

TEST(BatchEngine, ValidationFailuresSurfaceAsFailedResults) {
  const sim::Workload w = make_workload(30, 3, 4);
  const sim::Problem problem(w);
  // "random" places work arbitrarily but still validly, so use a registry
  // check instead: check_schedules with a healthy scheduler must not fail.
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngineOptions options;
  options.check_schedules = true;
  BatchEngine engine(registry, collector.callback(), options);
  BatchRequest request;
  request.problem = &problem;
  request.schedulers = kSchedulers;
  ASSERT_TRUE(engine.submit(request));
  engine.shutdown();
  EXPECT_EQ(engine.stats().sched_failures, 0u);
  for (const auto& [key, entry] : collector.entries) {
    EXPECT_TRUE(entry.ok) << entry.error;
  }
}

TEST(BatchEngine, MetricsRegistryMirrorsEngineStats) {
  auto& registry_metrics = obs::MetricRegistry::global();
  const auto submitted0 =
      registry_metrics.counter("svc.batch.submitted").value();
  const auto completed0 =
      registry_metrics.counter("svc.batch.completed").value();
  const auto rejected0 = registry_metrics.counter("svc.batch.rejected").value();

  const sim::Workload w = make_workload(30, 3, 8);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  Collector collector;
  BatchEngineOptions options;
  options.threads = 2;
  options.queue_capacity = 4;
  {
    BatchEngine engine(registry, collector.callback(), options);
    BatchRequest request;
    request.problem = &problem;
    request.schedulers = {"heft"};
    for (std::size_t i = 0; i < 10; ++i) {
      request.id = i;
      ASSERT_TRUE(engine.submit(request));
    }
    engine.shutdown();
    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, 10u);
    EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled);
    EXPECT_EQ(registry_metrics.counter("svc.batch.submitted").value(),
              submitted0 + stats.submitted);
    EXPECT_EQ(registry_metrics.counter("svc.batch.completed").value(),
              completed0 + stats.completed);
    EXPECT_EQ(registry_metrics.counter("svc.batch.rejected").value(),
              rejected0 + stats.rejected);
    // Latency histogram: one observation per successful (request, scheduler).
    EXPECT_GE(registry_metrics
                  .histogram("svc.batch.latency_ms.heft",
                             std::span<const double>{})
                  .count(),
              stats.completed);
  }
}

TEST(BatchEngine, FreeWorkerDrainsQueueInOrderWhileAPeerIsParked) {
  // Park BOTH workers inside gate generators, queue direct requests behind
  // them, then release a single worker. It alone must run every queued
  // request while its peer stays parked, oldest first: one ring makes
  // submission order the start order.
  const sim::Workload w = make_workload(25, 3, 7);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  GateGenerator gate_a;
  GateGenerator gate_b;
  std::mutex mu;
  std::vector<std::uint64_t> order;  // result ids in callback order
  auto on_result = [&](const BatchResult& r) {
    EXPECT_TRUE(r.ok) << r.error;
    std::lock_guard lock(mu);
    order.push_back(r.id);
  };
  BatchEngineOptions options;
  options.threads = 2;
  options.queue_capacity = 16;
  BatchEngine engine(registry, on_result, options);
  ASSERT_EQ(engine.threads(), 2u);

  BatchRequest blocked;
  blocked.schedulers = {"heft"};
  blocked.id = 1000;
  blocked.generator = &gate_a.fn;
  ASSERT_TRUE(engine.submit(blocked));
  blocked.id = 1001;
  blocked.generator = &gate_b.fn;
  ASSERT_TRUE(engine.submit(blocked));
  gate_a.wait_entered();
  gate_b.wait_entered();  // both workers parked, the ring empty

  constexpr std::size_t kDirects = 8;
  BatchRequest direct;
  direct.problem = &problem;
  direct.schedulers = {"heft"};
  for (std::size_t i = 0; i < kDirects; ++i) {
    direct.id = i;
    ASSERT_TRUE(engine.try_submit(direct));
  }

  gate_a.release();  // one worker drains everything; its peer stays parked
  while (engine.stats().completed < 1 + kDirects) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::uint64_t> expected = {1000};
  for (std::size_t i = 0; i < kDirects; ++i) expected.push_back(i);
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(order, expected);  // 1001 has not run: its worker is parked
  }

  gate_b.release();
  engine.shutdown(BatchEngine::Drain::kDrain);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2 + kDirects);
  EXPECT_EQ(stats.completed, 2 + kDirects);
  EXPECT_EQ(stats.cancelled, 0u);
  expected.push_back(1001);
  EXPECT_EQ(order, expected);
}

// ---------------------------------------------------------------------------
// Stress suite: sized via HDLTS_BATCH_STRESS_REQUESTS (CI TSan runs a larger
// setting). Contention by construction: a queue much smaller than the
// request count (every submit exercises blocking backpressure) and two
// producer threads.
// ---------------------------------------------------------------------------

TEST(BatchStress, ContendedProducersStayDeterministic) {
  const auto requests = static_cast<std::size_t>(
      util::env_int("HDLTS_BATCH_STRESS_REQUESTS", 200));
  constexpr std::size_t kDistinctProblems = 8;
  std::vector<sim::Workload> workloads;
  std::vector<sim::Problem> problems;
  for (std::size_t i = 0; i < kDistinctProblems; ++i) {
    workloads.push_back(make_workload(50, 4, util::derive_seed(31, i)));
  }
  for (const auto& w : workloads) problems.emplace_back(w);

  const sched::Registry registry = core::default_registry();
  // Serial reference makespans, one per (problem, scheduler).
  std::vector<std::vector<double>> reference(kDistinctProblems);
  for (std::size_t p = 0; p < kDistinctProblems; ++p) {
    for (const auto& name : kSchedulers) {
      reference[p].push_back(
          registry.make(name)->schedule(problems[p]).makespan());
    }
  }

  // Lock-free result recording: every (id, scheduler) owns its own slot.
  std::vector<double> makespans(requests * kSchedulers.size(), -1.0);
  auto on_result = [&](const BatchResult& r) {
    ASSERT_TRUE(r.ok) << r.error;
    makespans[r.id * kSchedulers.size() + r.scheduler_index] = r.makespan;
  };

  BatchEngineOptions options;
  options.threads = 4;
  options.queue_capacity = 8;  // far below `requests`: submits block
  BatchEngine engine(registry, on_result, options);

  auto producer = [&](std::size_t begin, std::size_t end) {
    BatchRequest request;
    request.schedulers = kSchedulers;
    for (std::size_t i = begin; i < end; ++i) {
      request.id = i;
      request.problem = &problems[i % kDistinctProblems];
      ASSERT_TRUE(engine.submit(request));
    }
  };
  std::thread half([&] { producer(0, requests / 2); });
  producer(requests / 2, requests);
  half.join();
  engine.shutdown(BatchEngine::Drain::kDrain);

  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, requests);
  EXPECT_EQ(stats.completed, requests);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.sched_failures, 0u);
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_LE(stats.queue_high_water, options.queue_capacity);

  for (std::size_t i = 0; i < requests; ++i) {
    for (std::size_t si = 0; si < kSchedulers.size(); ++si) {
      EXPECT_EQ(makespans[i * kSchedulers.size() + si],
                reference[i % kDistinctProblems][si])
          << "request " << i << " scheduler " << kSchedulers[si];
    }
  }
}

TEST(BatchStress, BurstySubmissionWithUnevenCosts) {
  // Bursts much larger than the worker count while request costs vary
  // (different problem sizes), so fast workers pop again while slow ones
  // still run — the contended shape the CI TSan job soaks.
  const auto requests = static_cast<std::size_t>(
      util::env_int("HDLTS_BATCH_STRESS_REQUESTS", 200));
  std::vector<sim::Workload> workloads;
  std::vector<sim::Problem> problems;
  for (std::size_t i = 0; i < 6; ++i) {
    // 10..60 tasks: an order of magnitude spread in per-request cost.
    workloads.push_back(make_workload(10 + i * 10, 3, util::derive_seed(7, i)));
  }
  for (const auto& w : workloads) problems.emplace_back(w);
  const sched::Registry registry = core::default_registry();

  std::atomic<std::size_t> ok_results{0};
  auto on_result = [&](const BatchResult& r) {
    ASSERT_TRUE(r.ok) << r.error;
    ok_results.fetch_add(1);
  };
  BatchEngineOptions options;
  options.threads = 4;
  options.queue_capacity = 64;
  BatchEngine engine(registry, on_result, options);
  BatchRequest request;
  request.schedulers = {"hdlts"};
  for (std::size_t i = 0; i < requests; ++i) {
    request.id = i;
    request.problem = &problems[i % problems.size()];
    ASSERT_TRUE(engine.submit(request));
    // Drain bursts completely so the next burst starts from idle — fast
    // workers repeatedly outrun slow ones.
    if (i % 48 == 47) engine.wait_idle();
  }
  engine.shutdown(BatchEngine::Drain::kDrain);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, requests);
  EXPECT_EQ(stats.completed, requests);
  EXPECT_EQ(ok_results.load(), requests);
  EXPECT_EQ(stats.sched_failures, 0u);
}

TEST(BatchStress, RepeatedStartupShutdownCycles) {
  const sim::Workload w = make_workload(30, 3, 6);
  const sim::Problem problem(w);
  const sched::Registry registry = core::default_registry();
  for (std::size_t cycle = 0; cycle < 8; ++cycle) {
    Collector collector;
    BatchEngineOptions options;
    options.threads = 3;
    options.queue_capacity = 4;
    BatchEngine engine(registry, collector.callback(), options);
    BatchRequest request;
    request.problem = &problem;
    request.schedulers = {"heft"};
    for (std::size_t i = 0; i < 6; ++i) {
      request.id = i;
      ASSERT_TRUE(engine.submit(request));
    }
    // Alternate drain and cancel shutdowns; the accounting invariant holds
    // for both.
    engine.shutdown(cycle % 2 == 0 ? BatchEngine::Drain::kDrain
                                   : BatchEngine::Drain::kCancel);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled);
  }
}

}  // namespace
}  // namespace hdlts
