// Experiment harness tests: determinism, thread-count independence,
// failure reporting, aggregation.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/metrics/experiment.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::metrics {
namespace {

WorkloadFactory small_random_factory() {
  return [](std::uint64_t seed) {
    workload::RandomDagParams params;
    params.num_tasks = 40;
    params.costs.num_procs = 3;
    params.costs.ccr = 2.0;
    return workload::random_workload(params, seed);
  };
}

TEST(Experiment, ProducesOneSummaryPerScheduler) {
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 5;
  opt.check_schedules = true;
  const auto rows = compare_schedulers(small_random_factory(),
                                       {"hdlts", "heft", "mct"}, reg, opt);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].scheduler, "hdlts");
  for (const auto& r : rows) {
    EXPECT_EQ(r.slr.count(), 5u);
    EXPECT_GE(r.slr.mean(), 1.0);
    EXPECT_GT(r.efficiency.mean(), 0.0);
    EXPECT_LE(r.wins, 5u);
  }
}

TEST(Experiment, WinsSumToAtLeastRepetitions) {
  // Every repetition has at least one winner (ties count for both).
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 8;
  const auto rows = compare_schedulers(small_random_factory(),
                                       {"hdlts", "heft"}, reg, opt);
  EXPECT_GE(rows[0].wins + rows[1].wins, 8u);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 6;
  const auto a =
      compare_schedulers(small_random_factory(), {"hdlts"}, reg, opt);
  const auto b =
      compare_schedulers(small_random_factory(), {"hdlts"}, reg, opt);
  EXPECT_DOUBLE_EQ(a[0].slr.mean(), b[0].slr.mean());
  EXPECT_DOUBLE_EQ(a[0].makespan.mean(), b[0].makespan.mean());
}

TEST(Experiment, ThreadCountsAgreeExactly) {
  const sched::Registry reg = core::default_registry();
  CompareOptions one;
  one.repetitions = 6;
  CompareOptions four = one;
  four.threads = 4;
  const auto a = compare_schedulers(small_random_factory(), {"hdlts", "heft"},
                                    reg, one);
  const auto b = compare_schedulers(small_random_factory(), {"hdlts", "heft"},
                                    reg, four);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].slr.mean(), b[i].slr.mean());
    EXPECT_DOUBLE_EQ(a[i].speedup.mean(), b[i].speedup.mean());
    EXPECT_EQ(a[i].wins, b[i].wins);
  }
}

TEST(Experiment, MoreThreadsThanRepetitionsAgreeExactly) {
  // Workers beyond the repetition count stay idle; every aggregate still
  // matches the one-thread run bit for bit.
  const sched::Registry reg = core::default_registry();
  CompareOptions one;
  one.repetitions = 3;
  one.deadline_factor = 1.5;
  CompareOptions eight = one;
  eight.threads = 8;
  const std::vector<std::string> names{"hdlts", "heft", "cpop"};
  const auto a = compare_schedulers(small_random_factory(), names, reg, one);
  const auto b = compare_schedulers(small_random_factory(), names, reg, eight);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scheduler, b[i].scheduler);
    EXPECT_EQ(a[i].slr.mean(), b[i].slr.mean());
    EXPECT_EQ(a[i].slr.variance_sample(), b[i].slr.variance_sample());
    EXPECT_EQ(a[i].speedup.mean(), b[i].speedup.mean());
    EXPECT_EQ(a[i].efficiency.mean(), b[i].efficiency.mean());
    EXPECT_EQ(a[i].makespan.min(), b[i].makespan.min());
    EXPECT_EQ(a[i].makespan.max(), b[i].makespan.max());
    EXPECT_EQ(a[i].energy.mean(), b[i].energy.mean());
    EXPECT_EQ(a[i].wins, b[i].wins);
    EXPECT_EQ(a[i].deadline_miss_rate, b[i].deadline_miss_rate);
  }
}

TEST(Experiment, BaseSeedChangesResults) {
  const sched::Registry reg = core::default_registry();
  CompareOptions a;
  a.repetitions = 4;
  a.base_seed = 1;
  CompareOptions b = a;
  b.base_seed = 2;
  const auto ra = compare_schedulers(small_random_factory(), {"hdlts"}, reg, a);
  const auto rb = compare_schedulers(small_random_factory(), {"hdlts"}, reg, b);
  EXPECT_NE(ra[0].makespan.mean(), rb[0].makespan.mean());
}

TEST(Experiment, RejectsEmptyInputs) {
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  EXPECT_THROW(compare_schedulers(small_random_factory(), {}, reg, opt),
               InvalidArgument);
  opt.repetitions = 0;
  EXPECT_THROW(
      compare_schedulers(small_random_factory(), {"hdlts"}, reg, opt),
      InvalidArgument);
}

TEST(Experiment, UnknownSchedulerFailsAtEveryThreadCount) {
  // Scheduler construction is hoisted out of the repetition loop (one
  // Registry::make per engine worker); a bad name must still surface as
  // the same Error however many workers run.
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 3;
  for (const std::size_t threads : {1u, 2u}) {
    opt.threads = threads;
    EXPECT_THROW(
        compare_schedulers(small_random_factory(), {"no-such"}, reg, opt),
        Error)
        << threads << " threads";
  }
}

TEST(Experiment, ZeroCostWorkloadThrowsAtEveryThreadCount) {
  // SLR is undefined when the critical path costs nothing. The metric
  // throws on an engine worker; the harness must turn that into its usual
  // catchable Error, not let it end the process.
  const WorkloadFactory zero_cost = [](std::uint64_t) {
    graph::TaskGraph g;
    g.add_task("a", 0.0);
    g.add_task("b", 0.0);
    g.add_edge(0, 1, 0.0);
    return sim::Workload{std::move(g), sim::CostTable(2, 2),
                         platform::Platform(2)};
  };
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 5;
  for (const std::size_t threads : {1u, 4u}) {
    opt.threads = threads;
    try {
      (void)compare_schedulers(zero_cost, {"hdlts", "heft"}, reg, opt);
      ADD_FAILURE() << "no throw at " << threads << " threads";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "experiment repetition failed: SLR undefined: critical path "
                "has zero cost")
          << threads << " threads";
    }
  }
}

TEST(Experiment, FailureNamesLowestRepetitionAtEveryThreadCount) {
  // Two repetitions fail. Whichever worker fails first in time, the error
  // is the lower repetition's, so it reads the same at every thread count.
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 8;
  // One worker starts requests in submission order, so the seeds it sees
  // are the repetitions' seeds in repetition order.
  std::vector<std::uint64_t> seeds;
  const WorkloadFactory recording = [&seeds](std::uint64_t seed) {
    seeds.push_back(seed);
    return small_random_factory()(seed);
  };
  (void)compare_schedulers(recording, {"heft"}, reg, opt);
  ASSERT_EQ(seeds.size(), opt.repetitions);
  const WorkloadFactory failing = [&seeds](std::uint64_t seed) {
    if (seed == seeds[2] || seed == seeds[6]) {
      throw Error("factory failed at seed " + std::to_string(seed));
    }
    return small_random_factory()(seed);
  };
  const std::string want = "experiment repetition failed: factory failed "
                           "at seed " + std::to_string(seeds[2]);
  for (const std::size_t threads : {1u, 4u}) {
    opt.threads = threads;
    try {
      (void)compare_schedulers(failing, {"hdlts", "heft"}, reg, opt);
      ADD_FAILURE() << "no throw at " << threads << " threads";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), want) << threads << " threads";
    }
  }
}

/// Returns a schedule with no task placed: every validation fails.
class UnplacedScheduler final : public sched::Scheduler {
 public:
  std::string name() const override { return "unplaced"; }
  sim::Schedule schedule(const sim::Problem& problem) const override {
    return sim::Schedule(problem.num_tasks(), problem.num_procs());
  }
};

TEST(Experiment, InvalidScheduleFailureNamesSchedulerAtEveryThreadCount) {
  // check_schedules validates on the engine workers; a violation surfaces
  // as the harness Error, prefixed with the scheduler that produced it.
  sched::Registry reg = core::default_registry();
  reg.add("unplaced", [] { return std::make_unique<UnplacedScheduler>(); });
  CompareOptions opt;
  opt.repetitions = 4;
  opt.check_schedules = true;
  for (const std::size_t threads : {1u, 4u}) {
    opt.threads = threads;
    try {
      (void)compare_schedulers(small_random_factory(), {"heft", "unplaced"},
                               reg, opt);
      ADD_FAILURE() << "no throw at " << threads << " threads";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "experiment repetition failed: unplaced: task 0 is not placed")
          << threads << " threads";
    }
  }
}

TEST(Experiment, PropagatesFactoryFailure) {
  const sched::Registry reg = core::default_registry();
  const WorkloadFactory broken = [](std::uint64_t) -> sim::Workload {
    throw Error("factory exploded");
  };
  CompareOptions opt;
  opt.repetitions = 2;
  EXPECT_THROW(compare_schedulers(broken, {"hdlts"}, reg, opt), Error);
}

TEST(Experiment, WinMatrixIsConsistent) {
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 10;
  const std::vector<std::string> names{"hdlts", "heft", "random"};
  const auto m = win_matrix(small_random_factory(), names, reg, opt);
  ASSERT_EQ(m.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(m[i].size(), 3u);
    EXPECT_DOUBLE_EQ(m[i][i], 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(m[i][j], 0.0);
      EXPECT_LE(m[i][j], 1.0);
      if (i != j) {
        // wins + losses + exact ties = 1.
        EXPECT_LE(m[i][j] + m[j][i], 1.0 + 1e-12);
      }
    }
  }
}

TEST(Experiment, WinMatrixDeterministic) {
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 6;
  const std::vector<std::string> names{"hdlts", "heft"};
  const auto a = win_matrix(small_random_factory(), names, reg, opt);
  const auto b = win_matrix(small_random_factory(), names, reg, opt);
  EXPECT_EQ(a, b);
}

TEST(Experiment, WinMatrixAgreesAcrossThreadCounts) {
  const sched::Registry reg = core::default_registry();
  CompareOptions one;
  one.repetitions = 7;
  CompareOptions three = one;
  three.threads = 3;
  const std::vector<std::string> names{"hdlts", "heft", "random"};
  EXPECT_EQ(win_matrix(small_random_factory(), names, reg, one),
            win_matrix(small_random_factory(), names, reg, three));
}

TEST(Experiment, UnknownSchedulerNameFails) {
  const sched::Registry reg = core::default_registry();
  CompareOptions opt;
  opt.repetitions = 1;
  EXPECT_THROW(
      compare_schedulers(small_random_factory(), {"not-a-sched"}, reg, opt),
      Error);
}

}  // namespace
}  // namespace hdlts::metrics
