// Zero-allocation regression tests for the scheduling hot paths.
//
// The contract: with a warmed scratch arena and a recycled Schedule, a
// steady-state schedule_into() call performs ZERO heap allocations.
// Enforced here with the operator-new interposer from
// tests/support/alloc_hook.cpp (linked into this binary only).
//
// Warm-up needs two calls: the first carves overflow blocks from an empty
// arena, the second folds them into a regrown primary buffer (one final
// allocation, counted by the interposer although the arena maps it); from
// the third call on the arena only rewinds. The recycled Schedule's vectors
// are at capacity after the first call.
#include "support/alloc_hook.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hdlts/core/energy_aware.hpp"
#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/obs/monitor.hpp"
#include "hdlts/sched/registry.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/arena.hpp"
#include "hdlts/util/thread_pool.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts {
namespace {

// sim::Problem is a non-owning view, so the Workload must stay alive.
sim::Workload make_workload(std::size_t tasks, std::size_t procs,
                            std::uint64_t seed) {
  workload::RandomDagParams params;
  params.num_tasks = tasks;
  params.costs.num_procs = procs;
  return workload::random_workload(params, seed);
}

struct AllocDelta {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
};

/// Heap traffic of one schedule_into() call after `warmups` warm-up calls.
AllocDelta steady_state_traffic(const sched::Scheduler& scheduler,
                                const sim::Problem& problem,
                                std::size_t warmups = 2) {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  for (std::size_t i = 0; i < warmups; ++i) {
    scheduler.schedule_into(problem, out);
  }
  const auto before = tests::alloc_counters();
  scheduler.schedule_into(problem, out);
  const auto after = tests::alloc_counters();
  return {after.allocations - before.allocations, after.frees - before.frees};
}

void expect_zero_traffic(const sched::Scheduler& scheduler,
                         const sim::Problem& problem) {
  const AllocDelta delta = steady_state_traffic(scheduler, problem);
  EXPECT_EQ(delta.allocations, 0u) << scheduler.name();
  EXPECT_EQ(delta.frees, 0u) << scheduler.name();
}

TEST(AllocHook, CountsAllocations) {
  // Guard against the interposer silently not linking: a plain vector
  // allocation must move the counter.
  const auto before = tests::alloc_counters();
  auto v = std::make_unique<std::vector<double>>(1024);
  v->back() = 1.0;
  const auto after = tests::alloc_counters();
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GE(after.bytes - before.bytes, 1024 * sizeof(double));
}

TEST(ScratchArena, RegrowsOnceThenRewindsWithoutAllocating) {
  // The arena maps its primary buffer past operator new; alloc_counters()
  // counts each map, so the zero-allocation checks below still see a cycle
  // that spills and the regrow that follows it.
  util::ScratchArena arena;
  const auto cycle = [&](std::size_t n) {
    const auto before = tests::alloc_counters();
    arena.reset();
    for (std::size_t k = 0; k < 4; ++k) {
      const std::span<std::uint64_t> s = arena.alloc<std::uint64_t>(n);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) %
                    alignof(std::uint64_t),
                0u);
      for (std::size_t i = 0; i < n; ++i) s[i] = i + k;
      EXPECT_EQ(s[n - 1], n - 1 + k);
    }
    return tests::alloc_counters().allocations - before.allocations;
  };
  EXPECT_GT(cycle(1000), 0u);  // spills into overflow blocks
  EXPECT_TRUE(arena.overflowed());
  const std::uint64_t maps = util::ScratchArena::mapped_buffers();
  EXPECT_EQ(cycle(1000), 1u);  // the regrown primary buffer, and it fits
  EXPECT_EQ(util::ScratchArena::mapped_buffers(), maps + 1);
  EXPECT_FALSE(arena.overflowed());
  EXPECT_GE(arena.capacity(), 4 * 1000 * sizeof(std::uint64_t));
  EXPECT_EQ(cycle(1000), 0u);
  EXPECT_EQ(cycle(500), 0u);
  EXPECT_GT(cycle(5000), 0u);  // outgrows the primary buffer again
  EXPECT_TRUE(arena.overflowed());
}

TEST(ZeroAlloc, HdltsCompiledSteadyState) {
  const sim::Workload w = make_workload(400, 8, 7);
  const sim::Problem problem(w);
  const core::Hdlts hdlts;
  expect_zero_traffic(hdlts, problem);
}

TEST(ZeroAlloc, HdltsCompiledSteadyStateAcrossOptions) {
  const sim::Workload w = make_workload(300, 5, 11);
  const sim::Problem problem(w);
  for (const char* name :
       {"hdlts", "hdlts-nodup", "hdlts-static", "hdlts-popstddev",
        "hdlts-range", "hdlts-insertion", "hdlts-multidup", "hdlts-energy"}) {
    const auto scheduler = core::default_registry().make(name);
    SCOPED_TRACE(name);
    expect_zero_traffic(*scheduler, problem);
  }
}

TEST(ZeroAlloc, EnergyAwareWeightedSteadyState) {
  // The weighted selection rule reads the compiled problem's cached
  // dyn_energy rows — no per-decision buffers — so a weighted,
  // deadline-constrained configuration keeps the zero-allocation contract.
  const sim::Workload w = make_workload(300, 5, 11);
  const sim::Problem problem(w);
  core::HdltsOptions options;
  options.energy_weight = 3.0;
  options.deadline = 1e6;
  const core::EnergyAwareHdlts hdlts(options);
  expect_zero_traffic(hdlts, problem);
}

TEST(ZeroAlloc, PortedListSchedulersSteadyState) {
  const sim::Workload w = make_workload(300, 6, 13);
  const sim::Problem problem(w);
  for (const char* name :
       {"heft", "cpop", "peft", "pets", "sdbats", "dls", "lookahead"}) {
    const auto scheduler = core::default_registry().make(name);
    SCOPED_TRACE(name);
    expect_zero_traffic(*scheduler, problem);
  }
}

TEST(ZeroAlloc, HdltsParallelEftSteadyState) {
  // The intra-problem parallel path must preserve the zero-allocation
  // contract: run_team broadcasts a non-owning FunctionRef (no
  // std::function, no queue nodes), so a steady-state call with the team
  // fanning out on every round still performs no heap allocation on the
  // calling thread. Workers allocate nothing either, but the interposer
  // counters are global — hence a 1-worker pool would hide nothing; use 4.
  const sim::Workload w = make_workload(400, 8, 7);
  const sim::Problem problem(w);
  util::ThreadPool pool(4);
  core::HdltsOptions options;
  options.parallel_min_work = 0;  // team dispatch on every round
  core::Hdlts hdlts(options);
  hdlts.set_thread_pool(&pool);
  expect_zero_traffic(hdlts, problem);
}

TEST(ZeroAlloc, BatchEngineSteadyState) {
  // The engine contract: once the ring slots, the per-worker scheduler
  // caches/arenas, and the recycled Schedules are warm, a direct-problem
  // batch request costs zero heap allocations end to end — submit (slot
  // copy-assign), pop, schedule_into, result callback, completion
  // accounting. Single worker so the counter deltas are exact: the main
  // thread waits idle between submissions, hence never races the worker.
  const sim::Workload w = make_workload(300, 6, 17);
  const sim::Problem problem(w);
  const sched::Registry registry = sched::baseline_registry();
  std::vector<double> makespans(1, 0.0);  // preallocated result slot
  svc::BatchEngineOptions options;
  options.threads = 1;
  options.queue_capacity = 4;
  svc::BatchEngine engine(
      registry,
      [&](const svc::BatchResult& r) { makespans[0] = r.makespan; }, options);

  svc::BatchRequest request;
  request.problem = &problem;
  request.schedulers = {"heft", "cpop"};
  // Warm every ring slot (the ring advances one slot per request) plus the
  // worker's scheduler cache and arenas.
  for (std::size_t i = 0; i < 2 * options.queue_capacity + 2; ++i) {
    request.id = i;
    ASSERT_TRUE(engine.submit(request));
    engine.wait_idle();
  }

  const auto before = tests::alloc_counters();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.submit(request));
    engine.wait_idle();
  }
  const auto after = tests::alloc_counters();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  EXPECT_EQ(after.frees - before.frees, 0u);
  EXPECT_GT(makespans[0], 0.0);
}

TEST(ZeroAlloc, BatchEngineOnlineSteadyState) {
  // Dynamic requests through the service layer: once the worker's
  // OnlineHdlts arena/Schedule/result buffers and the ring slots (including
  // the fault-plan vector) are warm, a kOnline request costs zero heap
  // allocations end to end.
  const sim::Workload w = make_workload(200, 6, 29);
  const sim::Problem problem(w);
  const sched::Registry registry = sched::baseline_registry();
  std::vector<double> makespans(1, 0.0);
  svc::BatchEngineOptions options;
  options.threads = 1;
  options.queue_capacity = 4;
  svc::BatchEngine engine(
      registry,
      [&](const svc::BatchResult& r) { makespans[0] = r.makespan; }, options);

  svc::BatchRequest request;
  request.problem = &problem;
  request.job = svc::BatchJob::kOnline;
  request.failures = {{1, 15.0}, {4, 40.0}};
  for (std::size_t i = 0; i < 2 * options.queue_capacity + 2; ++i) {
    request.id = i;
    ASSERT_TRUE(engine.submit(request));
    engine.wait_idle();
  }

  const auto before = tests::alloc_counters();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.submit(request));
    engine.wait_idle();
  }
  const auto after = tests::alloc_counters();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  EXPECT_EQ(after.frees - before.frees, 0u);
  EXPECT_GT(makespans[0], 0.0);
}

TEST(ZeroAlloc, MonitorIdleKeepsZeroAllocSteadyState) {
  // The runtime monitor's contract: between samples its thread sleeps in a
  // condition-variable wait and touches nothing, so a started (but idle)
  // monitor must not break the schedulers' zero-allocation steady state.
  // The period is far longer than the test, hence no sample can land inside
  // the measured window (the interposer counters are process-global).
  obs::MonitorOptions options;
  options.period = std::chrono::hours(1);
  obs::RuntimeMonitor monitor(std::move(options));
  monitor.start();

  const sim::Workload w = make_workload(400, 8, 7);
  const sim::Problem problem(w);
  const core::Hdlts hdlts;
  expect_zero_traffic(hdlts, problem);
  // sample_once() itself may allocate — it runs on the monitor thread, off
  // the measured path. Just prove the monitor still works after the run.
  monitor.sample_once();
  EXPECT_EQ(monitor.samples(), 1u);
}

TEST(ZeroAlloc, OnlineCompiledSteadyState) {
  // The dynamic-path contract: with a warm arena, a recycled Schedule, and
  // recycled result/committed buffers, a steady-state OnlineHdlts::run_into
  // costs zero heap allocations — including the failure phases (kill /
  // revoke / re-queue all happen in arena spans and capacity-stable
  // vectors).
  const sim::Workload w = make_workload(300, 8, 19);
  const sim::Problem problem(w);
  const std::vector<core::ProcFailure> failures{{1, 25.0}, {5, 60.0}};
  core::OnlineHdlts scheduler;
  core::OnlineResult out;
  for (int i = 0; i < 2; ++i) {
    scheduler.run_into(problem, failures, out);
  }
  ASSERT_TRUE(out.completed);
  const auto before = tests::alloc_counters();
  scheduler.run_into(problem, failures, out);
  const auto after = tests::alloc_counters();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  EXPECT_EQ(after.frees - before.frees, 0u);
  EXPECT_GT(out.makespan, 0.0);
}

TEST(ZeroAlloc, StreamCompiledSteadyState) {
  // compile() freezes the arrivals once (that step allocates); from the
  // third run_into on, scheduling the frozen stream is allocation-free for
  // both ITQ policies.
  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({make_workload(120, 6, 23), 0.0});
  arrivals.push_back({make_workload(120, 6, 24), 30.0});
  arrivals.push_back({make_workload(120, 6, 25), 70.0});
  for (const core::StreamPolicy policy :
       {core::StreamPolicy::kHdltsPv, core::StreamPolicy::kFifoEft}) {
    core::StreamOptions options;
    options.policy = policy;
    core::StreamHdlts scheduler(options);
    scheduler.compile(arrivals);
    core::StreamResult out;
    for (int i = 0; i < 2; ++i) {
      scheduler.run_into(out);
    }
    const auto before = tests::alloc_counters();
    scheduler.run_into(out);
    const auto after = tests::alloc_counters();
    EXPECT_EQ(after.allocations - before.allocations, 0u)
        << (policy == core::StreamPolicy::kHdltsPv ? "pv" : "fifo");
    EXPECT_EQ(after.frees - before.frees, 0u);
    EXPECT_GT(out.makespan, 0.0);
  }
}

TEST(ZeroAlloc, StreamDeadlineBusySteadyState) {
  // Deadlines and pre-occupied busy intervals ride the frozen stream:
  // deadline accounting writes into recycled flag/counter storage and the
  // busy intervals are re-applied from the frozen copy, so the steady-state
  // zero-allocation contract survives the QoS extension.
  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({make_workload(120, 6, 23), 0.0, 40.0,
                      core::DeadlineKind::kHard});
  arrivals.push_back({make_workload(120, 6, 24), 30.0, 200.0,
                      core::DeadlineKind::kSoft});
  arrivals.push_back({make_workload(120, 6, 25), 70.0, 90.0,
                      core::DeadlineKind::kSoft});
  const std::vector<core::BusyInterval> busy = {{0, 0.0, 12.0},
                                                {3, 5.0, 20.0}};
  core::StreamHdlts scheduler;
  scheduler.compile(arrivals, busy);
  core::StreamResult out;
  for (int i = 0; i < 2; ++i) {
    scheduler.run_into(out);
  }
  const auto before = tests::alloc_counters();
  scheduler.run_into(out);
  const auto after = tests::alloc_counters();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  EXPECT_EQ(after.frees - before.frees, 0u);
  EXPECT_GT(out.makespan, 0.0);
  EXPECT_EQ(out.deadline_missed.size(), arrivals.size());
  EXPECT_GT(out.deadline_misses, 0u);  // the 40.0 hard deadline is unmeetable
}

TEST(ZeroAlloc, OnlineLegacyPathStillAllocates) {
  // Negative control for the dynamic measurement: the legacy online path
  // rebuilds a sim::Problem per phase and per-round vectors every call.
  const sim::Workload w = make_workload(300, 8, 19);
  const std::vector<core::ProcFailure> failures{{1, 25.0}};
  (void)core::run_online_legacy(w, failures);  // warm allocator caches
  const auto before = tests::alloc_counters();
  (void)core::run_online_legacy(w, failures);
  const auto after = tests::alloc_counters();
  EXPECT_GT(after.allocations - before.allocations, 0u);
}

TEST(ZeroAlloc, StreamLegacyPathStillAllocates) {
  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({make_workload(120, 6, 23), 0.0});
  arrivals.push_back({make_workload(120, 6, 24), 30.0});
  (void)core::run_stream_legacy(arrivals);  // warm allocator caches
  const auto before = tests::alloc_counters();
  (void)core::run_stream_legacy(arrivals);
  const auto after = tests::alloc_counters();
  EXPECT_GT(after.allocations - before.allocations, 0u);
}

TEST(ZeroAlloc, ReferenceStillAllocates) {
  // Negative control: the brute-force reference rebuilds its per-entry
  // vectors and the Schedule every call — if this ever reads 0 the
  // measurement itself is broken.
  const sim::Workload w = make_workload(400, 8, 7);
  const sim::Problem problem(w);
  const core::ReferenceHdlts reference;
  EXPECT_GT(steady_state_traffic(reference, problem).allocations, 0u);
}

TEST(ZeroAlloc, HdltsMatchesReferenceWhileCounting) {
  // The interposer must be an observer, not a behaviour change: with it
  // active, core::Hdlts still matches the brute-force reference bit for bit
  // on every placement and duplicate.
  const sim::Workload w = make_workload(250, 7, 21);
  const sim::Problem problem(w);
  const core::Hdlts hdlts;
  sim::Schedule got(problem.num_tasks(), problem.num_procs());
  hdlts.schedule_into(problem, got);
  const sim::Schedule want = core::ReferenceHdlts().schedule(problem);
  EXPECT_EQ(got.makespan(), want.makespan());
  for (graph::TaskId v = 0; v < problem.num_tasks(); ++v) {
    SCOPED_TRACE("task " + std::to_string(v));
    EXPECT_EQ(got.placement(v).proc, want.placement(v).proc);
    EXPECT_EQ(got.placement(v).start, want.placement(v).start);
    EXPECT_EQ(got.placement(v).finish, want.placement(v).finish);
    const auto dg = got.duplicates(v);
    const auto dw = want.duplicates(v);
    ASSERT_EQ(dg.size(), dw.size());
    for (std::size_t i = 0; i < dg.size(); ++i) {
      EXPECT_EQ(dg[i].proc, dw[i].proc);
      EXPECT_EQ(dg[i].start, dw[i].start);
      EXPECT_EQ(dg[i].finish, dw[i].finish);
    }
  }
}

}  // namespace
}  // namespace hdlts
