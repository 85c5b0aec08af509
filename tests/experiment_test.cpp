// Experiment harness tests: determinism, pool-independence, aggregation.
#include <gtest/gtest.h>

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

TEST(Experiment, PoolAndSerialAgreeExactly) {
  const sched::Registry reg = core::default_registry();
  CompareOptions serial;
  serial.repetitions = 6;
  util::ThreadPool pool(4);
  CompareOptions parallel = serial;
  parallel.pool = &pool;
  const auto a = compare_schedulers(small_random_factory(), {"hdlts", "heft"},
                                    reg, serial);
  const auto b = compare_schedulers(small_random_factory(), {"hdlts", "heft"},
                                    reg, parallel);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].slr.mean(), b[i].slr.mean());
    EXPECT_DOUBLE_EQ(a[i].speedup.mean(), b[i].speedup.mean());
    EXPECT_EQ(a[i].wins, b[i].wins);
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

TEST(Experiment, UnknownSchedulerFailsOnPoolAndSerialPaths) {
  // Scheduler construction is hoisted out of the repetition loop (one
  // Registry::make set per worker chunk); a bad name must still surface as
  // the same Error on both execution paths.
  const sched::Registry reg = core::default_registry();
  CompareOptions serial;
  serial.repetitions = 3;
  EXPECT_THROW(
      compare_schedulers(small_random_factory(), {"no-such"}, reg, serial),
      Error);
  util::ThreadPool pool(2);
  CompareOptions parallel = serial;
  parallel.pool = &pool;
  EXPECT_THROW(
      compare_schedulers(small_random_factory(), {"no-such"}, reg, parallel),
      Error);
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
