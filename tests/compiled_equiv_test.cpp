// Differential property tests for the compiled problem view the schedulers
// run on.
//
// Two contracts:
//   1. Round-trip: every value CompiledProblem serves (CSR adjacency, W,
//      bandwidth, cached statistics, structure) is bit-exact against the
//      mutable TaskGraph / CostTable / Platform it was compiled from, on
//      200+ random problems including dead-processor subsets.
//   2. Recycling: schedule_into() into a dirty recycled Schedule equals
//      schedule() into a fresh one. (Schedules are checked against the
//      brute-force oracles in tests/incremental_equiv_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/graph/algorithms.hpp"
#include "hdlts/sim/compiled.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/util/stats.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts {
namespace {

sim::Workload random_problem(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 0xc0deULL));
  workload::RandomDagParams params;
  params.num_tasks = 15 + seed % 7 * 9;                // 15..69 tasks
  params.alpha = (seed % 3 == 0) ? 0.5 : ((seed % 3 == 1) ? 1.0 : 2.0);
  params.density = 1 + seed % 4;
  params.costs.num_procs = 2 + seed % 7;               // 2..8 processors
  params.costs.ccr = (seed % 4 == 0) ? 0.5 : ((seed % 4 == 1) ? 2.0 : 8.0);
  sim::Workload w = workload::random_workload(params, seed);
  for (platform::ProcId p = 0; p < w.platform.num_procs(); ++p) {
    if (w.platform.num_alive() > 1 && rng() % 4 == 0) {
      w.platform.set_alive(p, false);
    }
  }
  return w;
}

void expect_round_trip(const sim::Workload& w, const std::string& what) {
  const sim::CompiledProblem c(w.graph, w.costs, w.platform);
  const graph::TaskGraph& g = w.graph;
  SCOPED_TRACE(what);

  ASSERT_EQ(c.num_tasks(), g.num_tasks());
  ASSERT_EQ(c.num_procs(), w.platform.num_procs());
  EXPECT_EQ(c.num_edges(), g.num_edges());

  // CSR adjacency: same neighbours, same order, bit-identical volumes.
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    const auto gc = g.children(v);
    const auto cc = c.children(v);
    ASSERT_EQ(cc.size(), gc.size()) << "children of " << v;
    for (std::size_t i = 0; i < gc.size(); ++i) {
      EXPECT_EQ(cc[i].task, gc[i].task);
      EXPECT_EQ(cc[i].data, gc[i].data);
    }
    const auto gp = g.parents(v);
    const auto cp = c.parents(v);
    ASSERT_EQ(cp.size(), gp.size()) << "parents of " << v;
    for (std::size_t i = 0; i < gp.size(); ++i) {
      EXPECT_EQ(cp[i].task, gp[i].task);
      EXPECT_EQ(cp[i].data, gp[i].data);
    }
    EXPECT_EQ(c.out_degree(v), g.out_degree(v));
    EXPECT_EQ(c.in_degree(v), g.in_degree(v));
    for (const graph::Adjacent& a : gc) {
      EXPECT_EQ(c.edge_data(v, a.task), g.edge_data(v, a.task));
    }
  }

  // W matrix and cached per-task statistics.
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    const auto row = w.costs.row(v);
    const auto crow = c.cost_row(v);
    ASSERT_EQ(crow.size(), row.size());
    for (platform::ProcId p = 0; p < w.platform.num_procs(); ++p) {
      EXPECT_EQ(crow[p], row[p]);
      EXPECT_EQ(c.exec_time(v, p), w.costs(v, p));
    }
    EXPECT_EQ(c.mean_cost(v), w.costs.mean(v));
    EXPECT_EQ(c.min_cost(v), w.costs.min(v));
    EXPECT_EQ(c.stddev_cost(v), w.costs.stddev_sample(v));
    const bool free =
        std::all_of(row.begin(), row.end(), [](double x) { return x <= 0.0; });
    EXPECT_EQ(c.is_free_task(v), free);
  }

  // Bandwidth table and derived communication times.
  EXPECT_EQ(c.mean_bandwidth(), w.platform.mean_bandwidth());
  for (platform::ProcId a = 0; a < w.platform.num_procs(); ++a) {
    for (platform::ProcId b = 0; b < w.platform.num_procs(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(c.bandwidth(a, b), w.platform.bandwidth(a, b));
      const double data = 17.25 * (a + 1) + b;
      EXPECT_EQ(c.comm_time_data(data, a, b),
                data / w.platform.bandwidth(a, b));
    }
    EXPECT_EQ(c.comm_time_data(123.5, a, a), 0.0);
  }
  EXPECT_EQ(c.mean_comm_data(42.75), 42.75 / w.platform.mean_bandwidth());

  // Structure: topological order, levels, entries/exits, alive processors.
  const auto topo = graph::topological_order(g);
  ASSERT_EQ(c.topo_order().size(), topo.size());
  EXPECT_TRUE(std::equal(topo.begin(), topo.end(), c.topo_order().begin()));
  const auto levels = graph::precedence_levels(g);
  ASSERT_EQ(c.levels().size(), levels.size());
  EXPECT_TRUE(
      std::equal(levels.begin(), levels.end(), c.levels().begin()));
  const auto entries = g.entry_tasks();
  ASSERT_EQ(c.entry_tasks().size(), entries.size());
  EXPECT_TRUE(
      std::equal(entries.begin(), entries.end(), c.entry_tasks().begin()));
  const auto exits = g.exit_tasks();
  ASSERT_EQ(c.exit_tasks().size(), exits.size());
  EXPECT_TRUE(std::equal(exits.begin(), exits.end(), c.exit_tasks().begin()));

  const auto alive = w.platform.alive_procs();
  ASSERT_EQ(c.procs().size(), alive.size());
  EXPECT_TRUE(std::equal(alive.begin(), alive.end(), c.procs().begin()));
  EXPECT_EQ(c.num_alive(), w.platform.num_alive());
  for (platform::ProcId p = 0; p < w.platform.num_procs(); ++p) {
    const auto it = std::find(alive.begin(), alive.end(), p);
    if (it == alive.end()) {
      EXPECT_EQ(c.column_of(p), sim::CompiledProblem::kNoColumn);
    } else {
      EXPECT_EQ(c.column_of(p),
                static_cast<std::size_t>(it - alive.begin()));
    }
  }
}

TEST(CompiledRoundTrip, BitExactOn200RandomProblems) {
  std::size_t problems = 0;
  for (std::uint64_t seed = 0; seed < 210; ++seed) {
    expect_round_trip(random_problem(seed), "seed " + std::to_string(seed));
    ++problems;
  }
  EXPECT_GE(problems, 200u);
}

TEST(CompiledRoundTrip, RejectsInvalidDimensionsLikeWorkloadValidate) {
  sim::Workload w = random_problem(1);
  // A cost table with the wrong task count must be rejected at compile time
  // with the same exception Workload::validate throws.
  const sim::CostTable wrong(w.graph.num_tasks() + 1,
                             w.platform.num_procs());
  EXPECT_THROW(sim::CompiledProblem(w.graph, wrong, w.platform),
               InvalidArgument);
}

void expect_identical(const sim::Schedule& got, const sim::Schedule& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_tasks(), want.num_tasks()) << what;
  for (graph::TaskId v = 0; v < got.num_tasks(); ++v) {
    SCOPED_TRACE(what + ", task " + std::to_string(v));
    const sim::Placement& a = got.placement(v);
    const sim::Placement& b = want.placement(v);
    EXPECT_EQ(a.proc, b.proc);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.finish, b.finish);
    const auto da = got.duplicates(v);
    const auto db = want.duplicates(v);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].proc, db[i].proc);
      EXPECT_EQ(da[i].start, db[i].start);
      EXPECT_EQ(da[i].finish, db[i].finish);
    }
  }
}

TEST(CompiledPathEquivalence, RecycledScheduleMatchesFreshSchedule) {
  // schedule_into into a dirty recycled Schedule must equal schedule() into
  // a fresh one — reset() has to clear every piece of incremental state.
  const sched::Registry registry = core::default_registry();
  for (const char* name : {"hdlts", "heft", "cpop", "dls"}) {
    const auto scheduler = registry.make(name);
    sim::Schedule recycled(1, 1);
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const sim::Workload w = random_problem(seed * 31 + 2);
      const sim::Problem problem(w);
      scheduler->schedule_into(problem, recycled);
      const sim::Schedule fresh = scheduler->schedule(problem);
      expect_identical(recycled, fresh,
                       std::string(name) + ", seed " + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace hdlts
