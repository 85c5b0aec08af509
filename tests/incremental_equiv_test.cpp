// Differential property tests for the incremental scheduling state: the
// optimized HDLTS (cached EFT rows + reduction-tree PV moments + O(1)
// availability) and HEFT must produce *bit-identical* schedules to the
// brute-force reference implementations (core/reference.hpp) that rebuild
// every EFT row and rescan every timeline each round — across random DAGs,
// every PvKind, insertion on/off, every duplication rule, static/dynamic
// priorities, the weighted energy/deadline selection rule on heterogeneous
// processor powers, and dead-processor subsets. The O(1) Schedule caches
// are also re-verified against full timeline scans after every run. The
// fault-free legacy online path and the traced HDLTS run are pinned to the
// same schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/heft.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/workload/classic.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts {
namespace {

sim::Workload random_problem(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, 0x1e9cULL));
  workload::RandomDagParams params;
  params.num_tasks = 20 + seed % 5 * 12;               // 20..68 tasks
  params.alpha = (seed % 3 == 0) ? 0.5 : ((seed % 3 == 1) ? 1.0 : 2.0);
  params.density = 2 + seed % 3;
  params.costs.num_procs = 2 + seed % 7;               // 2..8 processors
  params.costs.ccr = (seed % 4 == 0) ? 0.5 : ((seed % 4 == 1) ? 2.0 : 10.0);
  sim::Workload w = workload::random_workload(params, seed);
  // Dead-processor subset: kill each processor with probability ~1/4, always
  // keeping at least one alive.
  for (platform::ProcId p = 0; p < w.platform.num_procs(); ++p) {
    if (w.platform.num_alive() > 1 && rng() % 4 == 0) {
      w.platform.set_alive(p, false);
    }
  }
  // Per-processor busy/idle powers, so the weighted rule's dynamic-energy
  // term W * (busy - idle) differs across processors in arbitrary bits.
  for (platform::ProcId p = 0; p < w.platform.num_procs(); ++p) {
    const double busy = rng.uniform(0.5, 4.0);
    w.platform.set_power(p, busy, busy * rng.uniform(0.0, 0.6));
  }
  return w;
}

void expect_identical(const sim::Schedule& got, const sim::Schedule& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_tasks(), want.num_tasks()) << what;
  for (graph::TaskId v = 0; v < got.num_tasks(); ++v) {
    SCOPED_TRACE(what + ", task " + std::to_string(v));
    const sim::Placement& a = got.placement(v);
    const sim::Placement& b = want.placement(v);
    EXPECT_EQ(a.proc, b.proc);
    // Bitwise equality, not near: the incremental path must not drift.
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

/// The O(1) caches must agree with full scans of the final timelines.
void expect_caches_consistent(const sim::Schedule& schedule) {
  double span = 0.0;
  for (platform::ProcId p = 0; p < schedule.num_procs(); ++p) {
    double avail = 0.0;
    for (const sim::Placement& pl : schedule.timeline(p)) {
      avail = std::max(avail, pl.finish);
    }
    EXPECT_EQ(schedule.proc_available(p), avail) << "proc " << p;
    span = std::max(span, avail);
  }
  EXPECT_EQ(schedule.makespan(), span);
}

std::vector<core::HdltsOptions> hdlts_option_grid() {
  std::vector<core::HdltsOptions> grid;
  for (const core::PvKind pv :
       {core::PvKind::kSampleStddev, core::PvKind::kPopulationStddev,
        core::PvKind::kRange}) {
    for (const bool insertion : {false, true}) {
      for (const core::DuplicationRule dup :
           {core::DuplicationRule::kOff,
            core::DuplicationRule::kAnyChildBenefits,
            core::DuplicationRule::kAllChildrenBenefit}) {
        for (const bool dynamic : {true, false}) {
          core::HdltsOptions o;
          o.pv = pv;
          o.insertion = insertion;
          o.duplication = dup;
          o.dynamic_priorities = dynamic;
          // Exercise the generalized-duplication extension on part of the
          // grid (it changes which tasks qualify, not the inner loop).
          o.duplicate_all_sources = insertion && dynamic;
          grid.push_back(o);
        }
      }
    }
  }
  // The weighted energy/deadline rule (core::EnergyAwareHdlts): two nonzero
  // weights, each without and with a finite deadline. The deadline is
  // absolute and these problems' makespans run from hundreds to thousands,
  // so 1000 binds partway through most schedules: earlier decisions choose
  // among the processors that meet it, later ones fall back to min-EFT.
  for (const double weight : {0.5, 20.0}) {
    for (const double deadline :
         {std::numeric_limits<double>::infinity(), 1000.0}) {
      for (const bool dynamic : {true, false}) {
        core::HdltsOptions o;
        o.energy_weight = weight;
        o.deadline = deadline;
        o.dynamic_priorities = dynamic;
        o.insertion = !dynamic;
        grid.push_back(o);
      }
    }
  }
  return grid;
}

TEST(IncrementalEquivalence, PvAccumulatorUpdateMatchesRebuildBitwise) {
  // The fixed-shape reduction tree is what makes incremental PV maintenance
  // provably drift-free: after any sequence of single-column updates, pv()
  // must equal — bitwise — a fresh rebuild from the current row.
  util::Rng rng(123);
  auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53 * 1000.0;
  };
  for (const core::PvKind kind :
       {core::PvKind::kSampleStddev, core::PvKind::kPopulationStddev,
        core::PvKind::kRange}) {
    for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 32u, 33u}) {
      std::vector<double> row(n);
      for (double& x : row) x = uniform();
      core::PvAccumulator incremental(kind, n);
      incremental.assign(row);
      for (int step = 0; step < 64; ++step) {
        const std::size_t i = rng() % n;
        row[i] = uniform();
        incremental.update(i, row[i]);
        core::PvAccumulator rebuilt(kind, n);
        rebuilt.assign(row);
        ASSERT_EQ(incremental.pv(), rebuilt.pv())
            << "kind " << static_cast<int>(kind) << ", n " << n << ", step "
            << step;
        ASSERT_EQ(incremental.pv(), core::penalty_value(kind, row));
      }
    }
  }
}

TEST(IncrementalEquivalence, ReductionTreeSumTracksLeaves) {
  util::ReductionTree tree(util::ReductionTree::Op::kSum, 5);
  EXPECT_EQ(tree.root(), 0.0);
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  tree.assign(xs);
  EXPECT_EQ(tree.root(), 15.0);
  EXPECT_EQ(tree.leaf(3), 4.0);
  tree.update(3, 10.0);
  EXPECT_EQ(tree.root(), 21.0);
  EXPECT_THROW(tree.update(5, 0.0), InvalidArgument);
  EXPECT_THROW(tree.assign(std::vector<double>(4, 0.0)), InvalidArgument);
  EXPECT_THROW(util::ReductionTree(util::ReductionTree::Op::kMin, 0),
               InvalidArgument);
}

TEST(IncrementalEquivalence, HdltsMatchesReferenceAcrossOptionGrid) {
  const auto grid = hdlts_option_grid();  // 36 + 8 weighted combinations
  std::size_t problems = 0;
  for (std::size_t ci = 0; ci < grid.size(); ++ci) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const sim::Workload w = random_problem(seed * 101 + ci);
      const sim::Problem problem(w);
      const core::Hdlts optimized(grid[ci]);
      const core::ReferenceHdlts reference(grid[ci]);
      const sim::Schedule got = optimized.schedule(problem);
      const sim::Schedule want = reference.schedule(problem);
      expect_identical(got, want,
                       "combo " + std::to_string(ci) + ", seed " +
                           std::to_string(seed));
      expect_caches_consistent(got);
      ++problems;
    }
  }
  // The acceptance bar: >= 200 random problems, every option combination.
  EXPECT_GE(problems, 200u);
}

TEST(IncrementalEquivalence, WeightedRuleMatchesReferenceOnDeadlineBoundaries) {
  // The paper's worked example has integer costs, so EFTs land exactly on
  // integer deadlines — a case the random grid never hits. A processor whose
  // EFT equals the deadline meets it, on both sides.
  sim::Workload w = workload::classic_workload();
  w.platform.set_power(0, 3.0, 0.5);
  w.platform.set_power(1, 1.0, 0.2);
  w.platform.set_power(2, 2.0, 0.1);
  const sim::Problem problem(w);
  for (const double weight : {0.5, 20.0}) {
    for (double deadline = 0.0; deadline <= 100.0; deadline += 1.0) {
      core::HdltsOptions o;
      o.energy_weight = weight;
      o.deadline = deadline;
      expect_identical(core::Hdlts(o).schedule(problem),
                       core::ReferenceHdlts(o).schedule(problem),
                       "weight " + std::to_string(weight) + ", deadline " +
                           std::to_string(deadline));
    }
  }
}

/// A fault-free online run is the static schedule: one surviving execution
/// per task at its placement, plus exactly the schedule's duplicates.
void expect_online_matches(const core::OnlineResult& got,
                           const sim::Schedule& want, const std::string& what) {
  EXPECT_TRUE(got.completed) << what;
  EXPECT_EQ(got.lost_executions, 0u) << what;
  EXPECT_EQ(got.makespan, want.makespan()) << what;
  std::vector<std::size_t> primaries(want.num_tasks(), 0);
  std::size_t duplicates = 0;
  for (const core::OnlineExec& e : got.executions) {
    ASSERT_LT(e.task, want.num_tasks()) << what;
    SCOPED_TRACE(what + ", task " + std::to_string(e.task));
    EXPECT_FALSE(e.lost);
    if (e.duplicate) {
      ++duplicates;
      const auto dups = want.duplicates(e.task);
      EXPECT_TRUE(std::any_of(dups.begin(), dups.end(),
                              [&](const sim::Placement& d) {
                                return d.proc == e.proc &&
                                       d.start == e.start &&
                                       d.finish == e.finish;
                              }));
      continue;
    }
    ++primaries[e.task];
    const sim::Placement& pl = want.placement(e.task);
    EXPECT_EQ(e.proc, pl.proc);
    EXPECT_EQ(e.start, pl.start);
    EXPECT_EQ(e.finish, pl.finish);
  }
  std::size_t want_duplicates = 0;
  for (graph::TaskId v = 0; v < want.num_tasks(); ++v) {
    EXPECT_EQ(primaries[v], 1u) << what << ", task " << v;
    want_duplicates += want.duplicates(v).size();
  }
  EXPECT_EQ(duplicates, want_duplicates) << what;
}

TEST(IncrementalEquivalence, OnlineLegacyFaultFreeMatchesReference) {
  // The retained legacy path is run_online_legacy, the dynamic oracle that
  // OnlineHdlts and DST are diffed against. With no failures its cold phase
  // is the whole run, so it must equal the static reference schedule. That
  // closes the triangle compiled == legacy (online_test, dst_test) ==
  // reference. The online runtimes select by min-EFT and duplicate a unique
  // entry only, so the weighted and duplicate-all-sources combinations are
  // out of its scope.
  const auto grid = hdlts_option_grid();
  std::size_t problems = 0;
  for (std::size_t ci = 0; ci < grid.size(); ++ci) {
    if (grid[ci].energy_weight != 0.0 || grid[ci].duplicate_all_sources) {
      continue;
    }
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const sim::Workload w = random_problem(seed * 57 + ci);
      const core::ReferenceHdlts reference(grid[ci]);
      expect_online_matches(
          core::run_online_legacy(w, {}, grid[ci]),
          reference.schedule(sim::Problem(w)),
          "legacy combo " + std::to_string(ci) + ", seed " +
              std::to_string(seed));
      ++problems;
    }
  }
  EXPECT_GE(problems, 100u);
}

TEST(IncrementalEquivalence, TracedScheduleMatchesUntraced) {
  // The decision trace is a pure observer: attaching a RecordingTrace must
  // leave every schedule bit-identical, across the option grid. The trace
  // records one step per task and one accepted duplication per duplicate.
  const auto grid = hdlts_option_grid();
  for (std::size_t ci = 0; ci < grid.size(); ci += 3) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const sim::Workload w = random_problem(seed * 11 + ci);
      const sim::Problem problem(w);
      const std::string what =
          "combo " + std::to_string(ci) + ", seed " + std::to_string(seed);
      obs::RecordingTrace trace;
      core::Hdlts traced(grid[ci]);
      traced.set_trace_sink(&trace);
      const sim::Schedule got = traced.schedule(problem);
      const sim::Schedule want = core::Hdlts(grid[ci]).schedule(problem);
      expect_identical(got, want, what);
      EXPECT_EQ(trace.steps().size(), problem.num_tasks()) << what;
      std::size_t duplicates = 0;
      for (graph::TaskId v = 0; v < want.num_tasks(); ++v) {
        duplicates += want.duplicates(v).size();
      }
      const std::size_t accepted = static_cast<std::size_t>(std::count_if(
          trace.duplications().begin(), trace.duplications().end(),
          [](const obs::DuplicationEvent& d) { return d.accepted; }));
      EXPECT_EQ(accepted, duplicates) << what;
      ASSERT_TRUE(trace.has_end()) << what;
      EXPECT_EQ(trace.end().makespan, want.makespan()) << what;
    }
  }
}

TEST(IncrementalEquivalence, HeftMatchesReferenceWithAndWithoutInsertion) {
  std::size_t problems = 0;
  for (const bool insertion : {true, false}) {
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      const sim::Workload w = random_problem(seed * 7 + 3);
      const sim::Problem problem(w);
      const sched::Heft optimized(insertion);
      const core::ReferenceHeft reference(insertion);
      const sim::Schedule got = optimized.schedule(problem);
      const sim::Schedule want = reference.schedule(problem);
      expect_identical(got, want,
                       std::string("insertion=") +
                           (insertion ? "on" : "off") + ", seed " +
                           std::to_string(seed));
      expect_caches_consistent(got);
      ++problems;
    }
  }
  EXPECT_GE(problems, 200u);
}

}  // namespace
}  // namespace hdlts
