// Online HDLTS with failure injection.
#include <gtest/gtest.h>

#include <algorithm>

#include "hdlts/check/faultplan.hpp"
#include "hdlts/check/validate.hpp"
#include "hdlts/core/itq_engine.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/workload/classic.hpp"
#include "hdlts/workload/fft.hpp"
#include "hdlts/workload/forkjoin.hpp"
#include "hdlts/workload/md.hpp"
#include "hdlts/workload/montage.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::core {
namespace {

TEST(Online, NoFailuresMatchesStaticSchedule) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const sim::Schedule s = Hdlts().schedule(p);
  const OnlineResult r = run_online(w, {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.lost_executions, 0u);
  EXPECT_DOUBLE_EQ(r.makespan, s.makespan());
  // Every primary placement appears with identical timing.
  for (graph::TaskId v = 0; v < p.num_tasks(); ++v) {
    const sim::Placement& pl = s.placement(v);
    const bool found = std::any_of(
        r.executions.begin(), r.executions.end(), [&](const OnlineExec& e) {
          return e.task == v && !e.duplicate && !e.lost &&
                 e.proc == pl.proc && std::abs(e.start - pl.start) < 1e-9;
        });
    EXPECT_TRUE(found) << "task " << v;
  }
}

TEST(Online, FailureAfterCompletionIsHarmless) {
  const sim::Workload w = workload::classic_workload();
  const ProcFailure late{1, 1000.0};
  const OnlineResult r = run_online(w, {&late, 1});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.lost_executions, 0u);
  EXPECT_DOUBLE_EQ(r.makespan, 73.0);
}

TEST(Online, MidRunFailureStillCompletes) {
  const sim::Workload w = workload::classic_workload();
  // P2 hosts most of the back half of the static schedule; kill it mid-run.
  const ProcFailure fail{1, 30.0};
  const OnlineResult r = run_online(w, {&fail, 1});
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.makespan, 73.0);  // losing a machine cannot help
  // Nothing (non-lost) runs on P2 after the failure.
  for (const OnlineExec& e : r.executions) {
    if (e.lost) continue;
    if (e.proc == 1) {
      EXPECT_LE(e.start, 30.0 + 1e-9);
    }
  }
}

TEST(Online, LostExecutionIsRecordedAndRetried) {
  const sim::Workload w = workload::classic_workload();
  // Kill P3 at t = 5 while the entry task (on P3, [0,9]) is running.
  const ProcFailure fail{2, 5.0};
  const OnlineResult r = run_online(w, {&fail, 1});
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.lost_executions, 1u);
  bool lost_entry = false;
  bool rerun_entry = false;
  for (const OnlineExec& e : r.executions) {
    if (e.task == 0 && e.lost) lost_entry = true;
    if (e.task == 0 && !e.lost && !e.duplicate && e.proc != 2) {
      rerun_entry = true;
    }
  }
  EXPECT_TRUE(lost_entry);
  // The entry's duplicates on P1/P2 (from the cold phase) may already cover
  // it; either a duplicate survived or it was re-run.
  bool dup_survived = false;
  for (const OnlineExec& e : r.executions) {
    if (e.task == 0 && e.duplicate && !e.lost) dup_survived = true;
  }
  EXPECT_TRUE(rerun_entry || dup_survived);
}

TEST(Online, CommittedExecutionsRespectPrecedencePhysically) {
  workload::RandomDagParams params;
  params.num_tasks = 60;
  params.costs.num_procs = 4;
  params.costs.ccr = 2.0;
  const sim::Workload w = workload::random_workload(params, 17);
  const std::vector<ProcFailure> fails{{0, 40.0}, {2, 90.0}};
  const OnlineResult r = run_online(w, fails);
  ASSERT_TRUE(r.completed);
  // Earliest completed copy per task.
  std::vector<double> done(w.graph.num_tasks(),
                           std::numeric_limits<double>::infinity());
  for (const OnlineExec& e : r.executions) {
    if (!e.lost) done[e.task] = std::min(done[e.task], e.finish);
  }
  const sim::Problem p0(w);
  for (const OnlineExec& e : r.executions) {
    if (e.lost || e.duplicate) continue;
    for (const graph::Adjacent& parent : w.graph.parents(e.task)) {
      // The parent must have a completed copy that finished in time to feed
      // this execution (comm <= data volume since bandwidth is 1).
      EXPECT_LE(done[parent.task], e.start + 1e-6)
          << "task " << e.task << " started before parent " << parent.task
          << " finished anywhere";
    }
  }
}

TEST(Online, AllProcessorsFailingAbortsGracefully) {
  const sim::Workload w = workload::classic_workload();
  const std::vector<ProcFailure> fails{{0, 1.0}, {1, 1.0}, {2, 1.0}};
  const OnlineResult r = run_online(w, fails);
  EXPECT_FALSE(r.completed);
}

TEST(Online, DuplicateFailureOfSameProcIgnored) {
  const sim::Workload w = workload::classic_workload();
  const std::vector<ProcFailure> fails{{1, 30.0}, {1, 40.0}};
  const OnlineResult r = run_online(w, fails);
  EXPECT_TRUE(r.completed);
}

TEST(Online, SurvivesAnEarlyFailureOnRandomGraph) {
  // Note: list-scheduling anomalies mean losing a machine is not *provably*
  // worse, so we only assert completion and a sane makespan here.
  workload::RandomDagParams params;
  params.num_tasks = 50;
  params.costs.num_procs = 4;
  const sim::Workload w = workload::random_workload(params, 23);
  const OnlineResult clean = run_online(w, {});
  const std::vector<ProcFailure> one{{1, 20.0}};
  const OnlineResult failed = run_online(w, one);
  ASSERT_TRUE(clean.completed);
  ASSERT_TRUE(failed.completed);
  EXPECT_GT(failed.makespan, 0.0);
}

// --- Seeded properties across every workload family ---

sim::Workload family_workload(int family, std::uint64_t seed) {
  workload::CostParams costs;
  costs.num_procs = 3;
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
      p.num_nodes = 30;
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
      p.costs = costs;
      return workload::forkjoin_workload(p, seed);
    }
  }
}

TEST(OnlineProperty, EverySeededFaultPlanValidatesAcrossFamilies) {
  const check::OnlineValidator validator;
  for (int family = 0; family < 5; ++family) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const sim::Workload w = family_workload(family, seed);
      const double clean = Hdlts().schedule(sim::Problem(w)).makespan();
      for (const check::FaultPlan& plan :
           check::make_fault_plans(3, clean, seed)) {
        const OnlineResult r = run_online(w, plan.failures);
        const auto violations = validator.validate(w, plan.failures, r);
        EXPECT_TRUE(violations.empty())
            << "family " << family << " seed " << seed << " plan \""
            << plan.description << "\": " << violations.front();
        // lost_executions must equal the number of attempts the replay
        // kills — recounted here independently of the validator.
        std::size_t killed = 0;
        for (const OnlineExec& e : r.executions) {
          if (e.lost) ++killed;
        }
        EXPECT_EQ(r.lost_executions, killed);
        if (plan.expectation == check::PlanExpectation::kMustComplete) {
          EXPECT_TRUE(r.completed) << plan.description;
        }
        if (plan.expectation == check::PlanExpectation::kMustFail) {
          EXPECT_FALSE(r.completed) << plan.description;
        }
      }
    }
  }
}

// --- Compiled-vs-reference bit identity ---

void expect_online_identical(const OnlineResult& got, const OnlineResult& want,
                             const std::string& label) {
  EXPECT_EQ(got.completed, want.completed) << label;
  EXPECT_EQ(got.makespan, want.makespan) << label;  // exact, no tolerance
  EXPECT_EQ(got.lost_executions, want.lost_executions) << label;
  ASSERT_EQ(got.executions.size(), want.executions.size()) << label;
  for (std::size_t i = 0; i < got.executions.size(); ++i) {
    const OnlineExec& a = got.executions[i];
    const OnlineExec& b = want.executions[i];
    EXPECT_EQ(a.task, b.task) << label << " #" << i;
    EXPECT_EQ(a.proc, b.proc) << label << " #" << i;
    EXPECT_EQ(a.start, b.start) << label << " #" << i;
    EXPECT_EQ(a.finish, b.finish) << label << " #" << i;
    EXPECT_EQ(a.duplicate, b.duplicate) << label << " #" << i;
    EXPECT_EQ(a.lost, b.lost) << label << " #" << i;
  }
}

constexpr PvKind kPvKinds[] = {PvKind::kSampleStddev,
                               PvKind::kPopulationStddev, PvKind::kRange};

TEST(OnlineDifferential, CompiledMatchesReferenceOnEverySeededFaultPlan) {
  // Every PV kind x family x seed x seeded fault plan, with the options
  // grid rotated the same way the DST sweep rotates it — compiled (the
  // run_online default) must be bit-identical to the naive reference. The
  // range kind is the only one whose packed alive-column trees reduce with
  // min/max instead of sums.
  std::size_t pairs = 0;
  for (const PvKind pv : kPvKinds) {
    for (int family = 0; family < 5; ++family) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const sim::Workload w = family_workload(family, seed);
        const double clean = Hdlts().schedule(sim::Problem(w)).makespan();
        std::size_t cell = 0;
        for (const check::FaultPlan& plan :
             check::make_fault_plans(3, clean, seed)) {
          HdltsOptions options;
          options.pv = pv;
          options.duplication = (cell % 3 == 2)
                                    ? DuplicationRule::kOff
                                    : DuplicationRule::kAnyChildBenefits;
          options.dynamic_priorities = cell % 2 == 0;
          options.insertion = cell % 4 == 1;
          ++cell;
          const OnlineResult compiled =
              run_online(w, plan.failures, options);
          const OnlineResult reference =
              reference_online(w, plan.failures, options);
          expect_online_identical(
              compiled, reference,
              "pv " + std::to_string(static_cast<int>(pv)) + " family " +
                  std::to_string(family) + " seed " + std::to_string(seed) +
                  " plan \"" + plan.description + "\"");
          ++pairs;
        }
      }
    }
  }
  EXPECT_GE(pairs, 300u);
}

TEST(OnlineDifferential, EngineKeysMatchPenaltyValueOfLiveColumns) {
  // After a failure the engine keeps full-width EFT rows but packs the
  // surviving columns into the PV trees. Every key must equal penalty_value
  // of the compacted row bit for bit, when pushed and after every refresh:
  // padding the dead columns with identities instead would re-associate the
  // sums, which no schedule-level test above can see on three processors.
  workload::RandomDagParams params;
  params.num_tasks = 60;
  params.costs.num_procs = 7;
  const sim::Workload w = workload::random_workload(params, 11);
  const sim::Problem problem(w);
  const sim::CompiledProblem& cp = problem.compiled();
  const std::size_t n = cp.num_tasks();
  const std::size_t np = cp.num_alive();
  ASSERT_EQ(np, 7u);
  const std::vector<unsigned char> all_live(np, 1);
  const std::vector<unsigned char> two_dead = {1, 0, 1, 1, 0, 1, 1};
  for (const auto* live : {&all_live, &two_dead}) {
    for (const PvKind pv : kPvKinds) {
      const std::string label = "pv " + std::to_string(static_cast<int>(pv)) +
                                (live == &all_live ? " all live" : " two dead");
      util::ScratchArena arena;
      sim::Schedule schedule(n, cp.num_procs());
      ItqEngine itq(arena, cp, schedule, pv, ItqRank::kDynamicPv,
                    /*insertion=*/false);
      itq.restart(*live);
      auto expect_keys_match = [&](std::size_t step) {
        for (std::size_t i = 0; i < itq.keys().size(); ++i) {
          const auto row = itq.row(i);
          std::vector<double> compacted;
          for (std::size_t ci = 0; ci < np; ++ci) {
            if ((*live)[ci] != 0) compacted.push_back(row[ci]);
          }
          EXPECT_EQ(itq.keys()[i], penalty_value(pv, compacted))
              << label << " step " << step << " entry " << i;
        }
      };
      std::vector<std::size_t> pending(n);
      for (graph::TaskId v = 0; v < n; ++v) {
        pending[v] = cp.in_degree(v);
        if (pending[v] == 0) itq.push(v, 0.0);
      }
      std::size_t step = 0;
      expect_keys_match(step);
      while (!itq.empty()) {
        const std::size_t pick = itq.pick();
        const graph::TaskId v = itq.task(pick);
        const auto row = itq.row(pick);
        const std::size_t best = itq.min_eft_column(row);
        ASSERT_NE((*live)[best], 0) << label;
        const platform::ProcId p = cp.procs()[best];
        const double finish = row[best];
        itq.remove(pick);
        const std::uint64_t mark = schedule.state_version();
        schedule.place(v, p, finish - cp.exec_time(v, p), finish);
        itq.refresh(mark);
        expect_keys_match(++step);
        for (const graph::Adjacent& c : cp.children(v)) {
          if (--pending[c.task] == 0) itq.push(c.task, 0.0);
        }
      }
      EXPECT_EQ(schedule.num_placed(), n) << label;
    }
  }
}

TEST(OnlineDifferential, EmptyPlanMatchesStaticAcrossOptionGrid) {
  // With no failure the online runtime is one cold phase of the static
  // algorithm, so it must reproduce Hdlts exactly — every primary, every
  // entry duplicate and the makespan — across every option the two share.
  std::size_t cases = 0;
  for (int family = 0; family < 5; ++family) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const sim::Workload w = family_workload(family, seed);
      const sim::Problem problem(w);
      for (const PvKind pv : kPvKinds) {
        for (const bool dynamic : {true, false}) {
          for (const bool insertion : {false, true}) {
            for (const DuplicationRule duplication :
                 {DuplicationRule::kOff, DuplicationRule::kAnyChildBenefits,
                  DuplicationRule::kAllChildrenBenefit}) {
              HdltsOptions options;
              options.pv = pv;
              options.dynamic_priorities = dynamic;
              options.insertion = insertion;
              options.duplication = duplication;
              const std::string label =
                  "family " + std::to_string(family) + " seed " +
                  std::to_string(seed) + " pv " +
                  std::to_string(static_cast<int>(pv)) + " dynamic " +
                  std::to_string(dynamic) + " insertion " +
                  std::to_string(insertion) + " duplication " +
                  std::to_string(static_cast<int>(duplication));
              const sim::Schedule s = Hdlts(options).schedule(problem);
              const OnlineResult r = run_online(w, {}, options);
              ASSERT_TRUE(r.completed) << label;
              EXPECT_EQ(r.lost_executions, 0u) << label;
              EXPECT_EQ(r.makespan, s.makespan()) << label;
              std::size_t primaries = 0;
              std::size_t duplicates = 0;
              for (const OnlineExec& e : r.executions) {
                if (e.duplicate) {
                  ++duplicates;
                  continue;
                }
                ++primaries;
                const sim::Placement& pl = s.placement(e.task);
                EXPECT_EQ(e.proc, pl.proc) << label << " task " << e.task;
                EXPECT_EQ(e.start, pl.start) << label << " task " << e.task;
                EXPECT_EQ(e.finish, pl.finish) << label << " task " << e.task;
              }
              EXPECT_EQ(primaries, problem.num_tasks()) << label;
              std::size_t want_duplicates = 0;
              for (graph::TaskId v = 0; v < problem.num_tasks(); ++v) {
                want_duplicates += s.duplicates(v).size();
              }
              EXPECT_EQ(duplicates, want_duplicates) << label;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 720u);
}

TEST(OnlineDifferential, SchedulerObjectReuseIsBitIdentical) {
  // One OnlineHdlts recycled across workloads and plans must match fresh
  // one-shot runs (warm arena/schedule state must not leak between runs).
  OnlineHdlts scheduler;
  OnlineResult out;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const sim::Workload w = family_workload(static_cast<int>(seed % 5), seed);
    const double clean = Hdlts().schedule(sim::Problem(w)).makespan();
    const sim::Problem problem(w);
    for (const check::FaultPlan& plan :
         check::make_fault_plans(3, clean, seed)) {
      scheduler.run_into(problem, plan.failures, out);
      const OnlineResult fresh = run_online(w, plan.failures);
      expect_online_identical(out, fresh,
                              "reuse seed " + std::to_string(seed));
    }
  }
}

TEST(OnlineProperty, FailuresAlmostNeverImproveTheMakespan) {
  // Greedy list scheduling admits Graham-type anomalies: removing a machine
  // *can* shorten the schedule, so strict per-run monotonicity is false
  // (empirically ~3% of completed degraded runs). The property that does
  // hold — and that this test pins — is that anomalies stay rare and every
  // other completed run is no faster than the clean schedule.
  std::size_t completed = 0;
  std::size_t anomalies = 0;
  for (int family = 0; family < 5; ++family) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const sim::Workload w = family_workload(family, seed);
      const double clean = Hdlts().schedule(sim::Problem(w)).makespan();
      for (const check::FaultPlan& plan :
           check::make_fault_plans(3, clean, seed)) {
        if (plan.failures.empty()) continue;
        const OnlineResult r = run_online(w, plan.failures);
        if (!r.completed) continue;
        ++completed;
        if (r.makespan < clean - 1e-6) ++anomalies;
      }
    }
  }
  ASSERT_GT(completed, 100u);
  EXPECT_LE(anomalies * 20, completed)  // anomaly rate bounded at 5%
      << anomalies << " of " << completed
      << " degraded runs beat the clean makespan";
}

}  // namespace
}  // namespace hdlts::core
