// Deterministic simulation testing sweep (check::run_dst): seeded fault
// injection across every workload family, with every run replayed through
// the dynamic validators. The tier-1 default is a bounded smoke; set
// HDLTS_DST_ROUNDS to scale it into a soak (the CI TSan job runs one).
// docs/TESTING.md describes how to replay a printed counterexample seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include <string>

#include "hdlts/check/dst.hpp"
#include "hdlts/check/faultplan.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/env.hpp"

namespace hdlts {
namespace {

std::size_t configured_rounds() {
  const std::int64_t env = util::env_int("HDLTS_DST_ROUNDS", 0);
  return env > 0 ? static_cast<std::size_t>(env) : check::DstOptions{}.rounds;
}

void report_counterexamples(const check::DstReport& report) {
  for (const check::DstCounterexample& cx : report.counterexamples) {
    ADD_FAILURE() << "DST counterexample (seed=" << cx.seed
                  << ", family=" << cx.family << ", scenario=" << cx.scenario
                  << ")\n  reproducer: " << cx.reproducer
                  << "\n  first violation: " << cx.violations.front();
  }
}

TEST(DstTest, SweepFindsNoViolations) {
  check::DstOptions options;
  options.rounds = configured_rounds();
  const check::DstReport report = check::run_dst(options);
  report_counterexamples(report);
  EXPECT_TRUE(report.ok());
  // The acceptance bar: a real sweep, not a stub. Five families x five
  // rounds x nine plans clears 200 validated fault-injection runs.
  EXPECT_GE(report.online_runs, 200u);
  // Two ITQ policies per (family, round) cell.
  EXPECT_GE(report.stream_runs, 2u * 5u * std::min<std::size_t>(options.rounds, 5));
}

TEST(DstTest, SweepComparesCompiledAgainstLegacyByDefault) {
  // The compiled/legacy differential is part of every sweep: every online
  // cell and both stream policies replay through the legacy reference
  // schedulers and ==-compare executions, makespan, and lost counts.
  // Divergence surfaces as a counterexample.
  check::DstOptions options;
  options.rounds = 1;
  const check::DstReport report = check::run_dst(options);
  report_counterexamples(report);
  EXPECT_TRUE(report.ok());
}

TEST(DstTest, SweepIsCleanUnderForcedSimdBackends) {
  const std::string saved(simd::active_backend());
  for (const char* backend : {"scalar", "avx2"}) {
    if (simd::backend(backend) == nullptr) continue;
    ASSERT_TRUE(simd::force_backend(backend));
    check::DstOptions options;
    options.rounds = 1;
    const check::DstReport report = check::run_dst(options);
    report_counterexamples(report);
    EXPECT_TRUE(report.ok()) << "backend " << backend;
  }
  simd::force_backend(saved);
}

TEST(DstTest, SweepIsDeterministic) {
  check::DstOptions options;
  options.rounds = 1;
  const check::DstReport a = check::run_dst(options);
  const check::DstReport b = check::run_dst(options);
  EXPECT_EQ(a.online_runs, b.online_runs);
  EXPECT_EQ(a.stream_runs, b.stream_runs);
  EXPECT_EQ(a.counterexamples.size(), b.counterexamples.size());
}

TEST(DstTest, FaultPlansAreSeededAndShaped) {
  const auto plans = check::make_fault_plans(4, 100.0, 42);
  const auto again = check::make_fault_plans(4, 100.0, 42);
  ASSERT_EQ(plans.size(), again.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ASSERT_EQ(plans[i].failures.size(), again[i].failures.size());
    for (std::size_t j = 0; j < plans[i].failures.size(); ++j) {
      EXPECT_EQ(plans[i].failures[j].proc, again[i].failures[j].proc);
      EXPECT_EQ(plans[i].failures[j].time, again[i].failures[j].time);
    }
  }
  // The family must include the empty plan, an all-procs-die-at-zero plan
  // (forced failure), and at least one forced-completion fault plan.
  bool has_empty = false;
  bool has_must_fail = false;
  bool has_must_complete_with_faults = false;
  for (const check::FaultPlan& p : plans) {
    if (p.failures.empty()) has_empty = true;
    if (p.expectation == check::PlanExpectation::kMustFail) {
      has_must_fail = true;
      EXPECT_EQ(p.failures.size(), 4u);
      for (const auto& f : p.failures) EXPECT_EQ(f.time, 0.0);
    }
    if (p.expectation == check::PlanExpectation::kMustComplete &&
        !p.failures.empty()) {
      has_must_complete_with_faults = true;
    }
  }
  EXPECT_TRUE(has_empty);
  EXPECT_TRUE(has_must_fail);
  EXPECT_TRUE(has_must_complete_with_faults);
  // Seeds must matter: a different seed reshuffles at least the times.
  const auto other = check::make_fault_plans(4, 100.0, 43);
  bool differs = false;
  for (std::size_t i = 0; i < plans.size() && !differs; ++i) {
    if (plans[i].failures.size() != other[i].failures.size()) differs = true;
    for (std::size_t j = 0; !differs && j < plans[i].failures.size(); ++j) {
      differs = plans[i].failures[j].proc != other[i].failures[j].proc ||
                plans[i].failures[j].time != other[i].failures[j].time;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace hdlts
