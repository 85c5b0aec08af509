// Multi-objective scheduling tests: Pareto frontier properties (mutual
// non-domination, dominated exclusion, order determinism) and the
// energy-aware backend's weight-0 anchor — with energy_weight = 0 and no
// deadline, hdlts-energy must be *bit-identical* to baseline HDLTS (every
// placement, every duplicate, the makespan, and the full decision-trace
// stream) across seeded problems from all five DAG families. That equality
// is what lets the weighted rule ship inside the compiled scheduler without
// a parallel oracle: the weight-0 configuration IS the baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hdlts/core/energy_aware.hpp"
#include "hdlts/core/hdlts.hpp"
#include "hdlts/metrics/experiment.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/workload/fft.hpp"
#include "hdlts/workload/forkjoin.hpp"
#include "hdlts/workload/md.hpp"
#include "hdlts/workload/montage.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts {
namespace {

using metrics::ParetoPoint;
using metrics::pareto_dominates;
using metrics::pareto_frontier;

// ---------------------------------------------------------------------------
// Dominance order basics.

TEST(ParetoDominance, HandCases) {
  const ParetoPoint a{"a", 1.0, 1.0, 0.0};
  const ParetoPoint b{"b", 2.0, 2.0, 0.5};
  const ParetoPoint c{"c", 1.0, 1.0, 0.0};   // equal to a
  const ParetoPoint d{"d", 0.5, 3.0, 0.0};   // trades makespan for energy
  EXPECT_TRUE(pareto_dominates(a, b));
  EXPECT_FALSE(pareto_dominates(b, a));
  EXPECT_FALSE(pareto_dominates(a, c));  // equal points do not dominate
  EXPECT_FALSE(pareto_dominates(c, a));
  EXPECT_FALSE(pareto_dominates(a, d));
  EXPECT_FALSE(pareto_dominates(d, a));
  EXPECT_FALSE(pareto_dominates(a, a));  // irreflexive
}

std::vector<ParetoPoint> random_points(std::size_t n, util::Rng& rng) {
  std::vector<ParetoPoint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Coarse grid so equal objectives (and fully equal points) occur often.
    out.push_back({"s" + std::to_string(i),
                   static_cast<double>(rng.uniform_int(1, 5)),
                   static_cast<double>(rng.uniform_int(1, 5)),
                   static_cast<double>(rng.uniform_int(0, 3)) * 0.25});
  }
  return out;
}

bool same_objectives(const ParetoPoint& a, const ParetoPoint& b) {
  return a.scheduler == b.scheduler && a.makespan == b.makespan &&
         a.energy == b.energy && a.miss_rate == b.miss_rate;
}

TEST(ParetoFrontier, MutuallyNonDominatedProperty) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    util::Rng rng(util::derive_seed(0xfaceULL, seed));
    const auto points =
        random_points(static_cast<std::size_t>(rng.uniform_int(1, 12)), rng);
    const auto frontier =
        pareto_frontier(std::span<const ParetoPoint>(points));
    ASSERT_FALSE(frontier.empty());  // a finite set always has a minimum
    for (const ParetoPoint& p : frontier) {
      for (const ParetoPoint& q : frontier) {
        EXPECT_FALSE(pareto_dominates(p, q))
            << p.scheduler << " dominates " << q.scheduler
            << " inside the frontier (seed " << seed << ")";
      }
    }
  }
}

TEST(ParetoFrontier, DominatedExcludedAndNonDominatedKeptProperty) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    util::Rng rng(util::derive_seed(0xbeadULL, seed));
    const auto points =
        random_points(static_cast<std::size_t>(rng.uniform_int(1, 12)), rng);
    const auto frontier =
        pareto_frontier(std::span<const ParetoPoint>(points));
    for (const ParetoPoint& p : points) {
      const bool dominated =
          std::any_of(points.begin(), points.end(), [&](const ParetoPoint& q) {
            return pareto_dominates(q, p);
          });
      const bool in_frontier = std::any_of(
          frontier.begin(), frontier.end(),
          [&](const ParetoPoint& f) { return same_objectives(f, p); });
      EXPECT_EQ(in_frontier, !dominated)
          << p.scheduler << " (seed " << seed << ")";
    }
  }
}

TEST(ParetoFrontier, DeterministicUnderInputShuffles) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::Rng rng(util::derive_seed(0x5ffULL, seed));
    const auto points =
        random_points(static_cast<std::size_t>(rng.uniform_int(2, 12)), rng);
    const auto reference =
        pareto_frontier(std::span<const ParetoPoint>(points));
    std::vector<ParetoPoint> shuffled = points;
    for (int round = 0; round < 4; ++round) {
      // Seeded Fisher-Yates: same shuffles on every run.
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shuffled[i - 1], shuffled[j]);
      }
      const auto frontier =
          pareto_frontier(std::span<const ParetoPoint>(shuffled));
      ASSERT_EQ(frontier.size(), reference.size()) << "seed " << seed;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        EXPECT_TRUE(same_objectives(frontier[i], reference[i]))
            << "position " << i << " (seed " << seed << ")";
      }
    }
  }
}

TEST(ParetoFrontier, EqualPointsAreAllKept) {
  const std::vector<ParetoPoint> points = {
      {"b", 1.0, 2.0, 0.0}, {"a", 1.0, 2.0, 0.0}, {"c", 3.0, 3.0, 0.5}};
  const auto frontier = pareto_frontier(std::span<const ParetoPoint>(points));
  ASSERT_EQ(frontier.size(), 2u);  // c is dominated, both copies survive
  EXPECT_EQ(frontier[0].scheduler, "a");  // name breaks the objective tie
  EXPECT_EQ(frontier[1].scheduler, "b");
}

// ---------------------------------------------------------------------------
// compare_schedulers multi-objective aggregation.

metrics::WorkloadFactory random_factory() {
  return [](std::uint64_t seed) {
    workload::RandomDagParams p;
    p.num_tasks = 24;
    p.costs.num_procs = 3;
    return workload::random_workload(p, seed);
  };
}

TEST(ParetoCompare, ThreadCountsAgreeBitwise) {
  const auto registry = core::default_registry();
  const std::vector<std::string> names = {"hdlts", "hdlts-energy", "heft"};
  metrics::CompareOptions one;
  one.repetitions = 12;
  one.deadline_factor = 1.5;
  metrics::CompareOptions four = one;
  four.threads = 4;
  const auto a = compare_schedulers(random_factory(), names, registry, one);
  const auto b = compare_schedulers(random_factory(), names, registry, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scheduler, b[i].scheduler);
    EXPECT_EQ(a[i].makespan.mean(), b[i].makespan.mean());
    EXPECT_EQ(a[i].energy.mean(), b[i].energy.mean());
    EXPECT_EQ(a[i].deadline_miss_rate, b[i].deadline_miss_rate);
  }
  const auto fa = pareto_frontier(a);
  const auto fb = pareto_frontier(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_TRUE(same_objectives(fa[i], fb[i])) << "position " << i;
  }
}

TEST(ParetoCompare, DeadlineFactorBoundsMissRate) {
  const auto registry = core::default_registry();
  const std::vector<std::string> names = {"hdlts"};
  metrics::CompareOptions options;
  options.repetitions = 8;
  options.deadline_factor = 1e-6;  // unmeetable: every repetition misses
  auto tight = compare_schedulers(random_factory(), names, registry, options);
  EXPECT_DOUBLE_EQ(tight[0].deadline_miss_rate, 1.0);
  options.deadline_factor = 1e6;  // trivially met
  auto loose = compare_schedulers(random_factory(), names, registry, options);
  EXPECT_DOUBLE_EQ(loose[0].deadline_miss_rate, 0.0);
  options.deadline_factor = 0.0;  // accounting off
  auto off = compare_schedulers(random_factory(), names, registry, options);
  EXPECT_DOUBLE_EQ(off[0].deadline_miss_rate, 0.0);
}

// ---------------------------------------------------------------------------
// Weight-0 anchor: hdlts-energy with energy_weight = 0 and no deadline is
// the baseline, bit for bit.

sim::Workload build_family(std::size_t family, std::uint64_t seed) {
  workload::CostParams costs;
  costs.num_procs = 3;
  costs.ccr = 2.0;
  switch (family) {
    case 0: {
      workload::RandomDagParams p;
      p.num_tasks = 24;
      p.costs = costs;
      return workload::random_workload(p, seed);
    }
    case 1: {
      workload::FftParams p;
      p.points = 8;
      p.costs = costs;
      return workload::fft_workload(p, seed);
    }
    case 2: {
      workload::MontageParams p;
      p.num_nodes = 24;
      p.costs = costs;
      return workload::montage_workload(p, seed);
    }
    case 3: {
      workload::MdParams p;
      p.costs = costs;
      return workload::md_workload(p, seed);
    }
    default: {
      workload::ForkJoinParams p;
      p.chains = 4;
      p.length = 4;
      p.costs = costs;
      return workload::forkjoin_workload(p, seed);
    }
  }
}

void expect_same_traces(const obs::RecordingTrace& a,
                        const obs::RecordingTrace& b) {
  EXPECT_EQ(a.num_tasks(), b.num_tasks());
  ASSERT_EQ(a.steps().size(), b.steps().size());
  for (std::size_t i = 0; i < a.steps().size(); ++i) {
    const auto& sa = a.steps()[i];
    const auto& sb = b.steps()[i];
    EXPECT_EQ(sa.step, sb.step);
    EXPECT_EQ(sa.itq_tasks, sb.itq_tasks);
    EXPECT_EQ(sa.itq_pv, sb.itq_pv);
    EXPECT_EQ(sa.selected, sb.selected);
    EXPECT_EQ(sa.eft, sb.eft);
    EXPECT_EQ(sa.chosen, sb.chosen);
    EXPECT_EQ(sa.start, sb.start);
    EXPECT_EQ(sa.finish, sb.finish);
  }
  ASSERT_EQ(a.placements().size(), b.placements().size());
  for (std::size_t i = 0; i < a.placements().size(); ++i) {
    const auto& pa = a.placements()[i];
    const auto& pb = b.placements()[i];
    EXPECT_EQ(pa.task, pb.task);
    EXPECT_EQ(pa.proc, pb.proc);
    EXPECT_EQ(pa.start, pb.start);
    EXPECT_EQ(pa.finish, pb.finish);
    EXPECT_EQ(pa.duplicate, pb.duplicate);
  }
  ASSERT_EQ(a.duplications().size(), b.duplications().size());
  for (std::size_t i = 0; i < a.duplications().size(); ++i) {
    const auto& da = a.duplications()[i];
    const auto& db = b.duplications()[i];
    EXPECT_EQ(da.task, db.task);
    EXPECT_EQ(da.candidate_proc, db.candidate_proc);
    EXPECT_EQ(da.dup_finish, db.dup_finish);
    EXPECT_EQ(da.accepted, db.accepted);
  }
  ASSERT_TRUE(a.has_end());
  ASSERT_TRUE(b.has_end());
  EXPECT_EQ(a.end().makespan, b.end().makespan);
  EXPECT_EQ(a.end().steps, b.end().steps);
  EXPECT_EQ(a.end().duplicates, b.end().duplicates);
}

void expect_same_schedules(const sim::Problem& problem, const sim::Schedule& a,
                           const sim::Schedule& b) {
  ASSERT_EQ(a.num_placed(), b.num_placed());
  EXPECT_EQ(a.makespan(), b.makespan());
  for (graph::TaskId v = 0; v < problem.num_tasks(); ++v) {
    const sim::Placement& pa = a.placement(v);
    const sim::Placement& pb = b.placement(v);
    EXPECT_EQ(pa.proc, pb.proc);
    EXPECT_EQ(pa.start, pb.start);
    EXPECT_EQ(pa.finish, pb.finish);
    const auto& da = a.duplicates(v);
    const auto& db = b.duplicates(v);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
      EXPECT_EQ(da[i].proc, db[i].proc);
      EXPECT_EQ(da[i].start, db[i].start);
      EXPECT_EQ(da[i].finish, db[i].finish);
    }
  }
}

TEST(EnergyAwareAnchor, WeightZeroIsBitIdenticalToBaselineHdlts) {
  // 20 seeds x 5 families = 100 problems, each scheduled by the baseline
  // and by the energy-aware backend configured back to weight 0 / no
  // deadline. Default HdltsOptions already has energy_weight = 0.
  constexpr std::size_t kSeeds = 20;
  constexpr std::size_t kFamilies = 5;
  for (std::size_t family = 0; family < kFamilies; ++family) {
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = util::derive_seed(0xa7c0ULL, family, s);
      const sim::Workload w = build_family(family, seed);
      const sim::Problem problem(w);

      core::Hdlts baseline;
      core::EnergyAwareHdlts zero{core::HdltsOptions{}};
      ASSERT_EQ(zero.options().energy_weight, 0.0);

      obs::RecordingTrace base_trace;
      obs::RecordingTrace zero_trace;
      baseline.set_trace_sink(&base_trace);
      zero.set_trace_sink(&zero_trace);

      const sim::Schedule a = baseline.schedule(problem);
      const sim::Schedule b = zero.schedule(problem);
      expect_same_schedules(problem, a, b);
      expect_same_traces(base_trace, zero_trace);
      if (::testing::Test::HasFailure()) {
        FAIL() << "family " << family << " seed " << s;
      }
    }
  }
}

TEST(EnergyAwareAnchor, RegistryEntryUsesEnergyDefaults) {
  const auto registry = core::default_registry();
  const auto scheduler = registry.make("hdlts-energy");
  EXPECT_EQ(scheduler->name(), "hdlts-energy");
  EXPECT_DOUBLE_EQ(core::EnergyAwareHdlts().options().energy_weight, 1.0);
}

TEST(EnergyAwareAnchor, WeightedSelectionCanLowerEnergy) {
  // Not a tautology of the anchor: with weight > 0 the backend must still
  // produce valid schedules, and across seeds it never spends more dynamic
  // energy than it would by ignoring the weight on at least one problem.
  std::size_t strictly_lower = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const sim::Workload w = build_family(0, util::derive_seed(0xeaULL, s));
    const sim::Problem problem(w);
    core::HdltsOptions heavy;
    heavy.energy_weight = 50.0;
    const sim::Schedule base = core::Hdlts().schedule(problem);
    const sim::Schedule green = core::EnergyAwareHdlts(heavy).schedule(problem);
    EXPECT_TRUE(green.validate(problem).empty());
    double base_dyn = 0.0;
    double green_dyn = 0.0;
    for (graph::TaskId v = 0; v < problem.num_tasks(); ++v) {
      base_dyn += problem.compiled().dyn_energy(v, base.placement(v).proc);
      green_dyn += problem.compiled().dyn_energy(v, green.placement(v).proc);
    }
    if (green_dyn < base_dyn) ++strictly_lower;
  }
  EXPECT_GT(strictly_lower, 0u);
}

}  // namespace
}  // namespace hdlts
