// Energy model tests, including the §II-B duplication/energy trade-off.
#include <gtest/gtest.h>

#include <utility>

#include "hdlts/core/energy_aware.hpp"
#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/metrics/energy.hpp"
#include "hdlts/sched/sdbats.hpp"
#include "hdlts/workload/classic.hpp"

namespace hdlts::metrics {
namespace {

TEST(PlatformPower, DefaultsAndValidation) {
  platform::Platform p(2);
  EXPECT_DOUBLE_EQ(p.busy_power(0), 1.0);
  EXPECT_DOUBLE_EQ(p.idle_power(0), 0.1);
  p.set_power(1, 3.0, 0.5);
  EXPECT_DOUBLE_EQ(p.busy_power(1), 3.0);
  EXPECT_DOUBLE_EQ(p.idle_power(1), 0.5);
  EXPECT_THROW(p.set_power(0, -1.0, 0.0), InvalidArgument);
  EXPECT_THROW(p.set_power(0, 1.0, 2.0), InvalidArgument);  // idle > busy
  EXPECT_THROW(p.set_power(9, 1.0, 0.1), InvalidArgument);
}

TEST(Energy, HandComputedOnTinySchedule) {
  graph::TaskGraph g;
  g.add_task();
  g.add_task();
  g.add_edge(0, 1, 0.0);
  sim::CostTable costs(2, 2);
  costs.set(0, 0, 10);
  costs.set(0, 1, 10);
  costs.set(1, 0, 10);
  costs.set(1, 1, 10);
  sim::Workload w{std::move(g), std::move(costs), platform::Platform(2)};
  w.platform.set_power(0, 2.0, 0.5);
  w.platform.set_power(1, 4.0, 1.0);
  const sim::Problem p(w);
  sim::Schedule s(2, 2);
  s.place(0, 0, 0.0, 10.0);
  s.place(1, 1, 10.0, 20.0);
  const EnergyBreakdown e = energy(p, s);
  // Busy: 10*2 on P1 + 10*4 on P2 = 60. Idle: P1 idles 10 at 0.5 = 5,
  // P2 idles 10 at 1.0 = 10.
  EXPECT_DOUBLE_EQ(e.busy, 60.0);
  EXPECT_DOUBLE_EQ(e.idle, 15.0);
  EXPECT_DOUBLE_EQ(e.duplicate, 0.0);
  EXPECT_DOUBLE_EQ(e.total(), 75.0);
}

TEST(Energy, DuplicateEnergyIsAttributed) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const sim::Schedule s = core::Hdlts().schedule(p);
  const EnergyBreakdown e = energy(p, s);
  // HDLTS duplicates the entry on P1 [0,14] and P2 [0,16] at busy power 1.
  EXPECT_DOUBLE_EQ(e.duplicate, 30.0);
  EXPECT_GT(e.busy, e.duplicate);
}

TEST(Energy, DuplicationTradesEnergyForMakespan) {
  // §II-B quantified: on the worked example, HDLTS-with-duplication is
  // faster but burns more busy energy than HDLTS-without.
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  core::HdltsOptions nodup;
  nodup.duplication = core::DuplicationRule::kOff;
  const sim::Schedule with = core::Hdlts().schedule(p);
  const sim::Schedule without = core::Hdlts(nodup).schedule(p);
  EXPECT_LT(with.makespan(), without.makespan());
  EXPECT_GT(energy(p, with).busy, energy(p, without).busy);
}

TEST(Energy, SdbatsFullDuplicationCostsMoreThanHdltsSelective) {
  // SDBATS duplicates the entry on every processor unconditionally; HDLTS
  // only where Algorithm 1 pays. On the classic graph both end up with two
  // extra copies, so compare busy energy against plain HEFT instead.
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const double sdbats_busy =
      energy(p, sched::Sdbats().schedule(p)).busy;
  const double plain_busy =
      energy(p, sched::Sdbats(true, false).schedule(p)).busy;
  EXPECT_GT(sdbats_busy, plain_busy);
}

TEST(Energy, EmptyScheduleIsFree) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const sim::Schedule s(p.num_tasks(), p.num_procs());
  const EnergyBreakdown e = energy(p, s);
  EXPECT_DOUBLE_EQ(e.total(), 0.0);
}

TEST(Energy, CompiledRowsMatchTheDefinition) {
  // The shared cost model caches dyn_energy(v,p) = W(v,p) * (busy - idle)
  // and static_power(p) = idle_power(p) at compile time — bit-identical to
  // recomputing from the platform, which is what keeps the weighted
  // selection rule equal between core::Hdlts (cached rows) and
  // core::ReferenceHdlts (recomputed).
  sim::Workload w = workload::classic_workload();
  w.platform.set_power(0, 2.0, 0.5);
  w.platform.set_power(2, 4.0, 1.0);
  const sim::Problem p(w);
  const sim::CompiledProblem& c = p.compiled();
  double static_sum = 0.0;
  for (platform::ProcId proc = 0; proc < w.platform.num_procs(); ++proc) {
    EXPECT_EQ(c.static_power(proc), w.platform.idle_power(proc));
    EXPECT_EQ(c.busy_power(proc), w.platform.busy_power(proc));
    static_sum += w.platform.idle_power(proc);
    for (graph::TaskId v = 0; v < w.graph.num_tasks(); ++v) {
      EXPECT_EQ(c.dyn_energy(v, proc),
                w.costs(v, proc) * (w.platform.busy_power(proc) -
                                    w.platform.idle_power(proc)));
    }
  }
  EXPECT_EQ(c.total_static_power(), static_sum);
}

TEST(Energy, TotalDecomposesIntoDynamicPlusStatic) {
  // total == sum(dyn over every placed block) + makespan * sum(static):
  // the algebraic identity behind the energy-aware objective, on a schedule
  // that includes duplicates.
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const sim::Schedule s = core::Hdlts().schedule(p);
  const sim::CompiledProblem& c = p.compiled();
  double dyn = 0.0;
  for (graph::TaskId v = 0; v < p.num_tasks(); ++v) {
    dyn += c.dyn_energy(v, s.placement(v).proc);
    for (const sim::Placement& d : s.duplicates(v)) {
      dyn += c.dyn_energy(v, d.proc);
    }
  }
  const EnergyBreakdown e = energy(p, s);
  EXPECT_NEAR(e.total(), dyn + s.makespan() * c.total_static_power(), 1e-9);
}

TEST(Energy, CompiledOverloadMatchesProblemOverload) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const sim::Schedule s = core::Hdlts().schedule(p);
  const EnergyBreakdown a = energy(p, s);
  const EnergyBreakdown b = energy(p.compiled(), s);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.duplicate, b.duplicate);
}

TEST(Energy, BusyIntervalsCarryNoEnergy) {
  // Pre-occupied intervals belong to someone else's accounting: placing one
  // must not change the schedule's energy (and must not stretch the
  // makespan the idle term integrates over).
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const sim::Schedule s = core::Hdlts().schedule(p);
  sim::Schedule with = s;
  with.place_busy(0, s.makespan(), s.makespan() + 100.0);
  EXPECT_EQ(with.makespan(), s.makespan());
  const EnergyBreakdown a = energy(p, s);
  const EnergyBreakdown b = energy(p, with);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.total(), b.total());
}

TEST(Energy, WeightedSelectionCompiledMatchesReference) {
  // The weighted rule reads the dynamic-energy term from the compiled
  // dyn_energy rows; core::ReferenceHdlts recomputes W * (busy - idle) from
  // the Platform. The production schedulers — Hdlts with a weight and a
  // deadline, and the "hdlts-energy" preset — must match it bit for bit on
  // the worked example, placements and duplicates alike.
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  core::HdltsOptions options;
  options.energy_weight = 2.5;
  options.deadline = 120.0;
  const core::Hdlts weighted(options);
  const core::EnergyAwareHdlts preset;
  const std::pair<const core::Hdlts*, core::HdltsOptions> cases[] = {
      {&weighted, options},
      {&preset, core::EnergyAwareHdlts::energy_defaults()}};
  for (const auto& [scheduler, reference_options] : cases) {
    SCOPED_TRACE(scheduler->name());
    const sim::Schedule compiled = scheduler->schedule(p);
    const sim::Schedule reference =
        core::ReferenceHdlts(reference_options).schedule(p);
    EXPECT_EQ(compiled.makespan(), reference.makespan());
    for (graph::TaskId v = 0; v < p.num_tasks(); ++v) {
      EXPECT_EQ(compiled.placement(v).proc, reference.placement(v).proc);
      EXPECT_EQ(compiled.placement(v).start, reference.placement(v).start);
      EXPECT_EQ(compiled.placement(v).finish, reference.placement(v).finish);
      const auto a = compiled.duplicates(v);
      const auto b = reference.duplicates(v);
      ASSERT_EQ(a.size(), b.size()) << "task " << v;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].proc, b[i].proc);
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].finish, b[i].finish);
      }
    }
  }
  // The weight moves decisions away from min-EFT, so the comparison covers
  // the weighted branch rather than the baseline scan.
  EXPECT_NE(weighted.schedule(p).makespan(),
            core::Hdlts().schedule(p).makespan());
}

}  // namespace
}  // namespace hdlts::metrics
