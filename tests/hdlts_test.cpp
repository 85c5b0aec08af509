// HDLTS tests: the full Table I trace of the paper, option variants, and the
// default registry.
#include <gtest/gtest.h>

#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/heft.hpp"
#include "hdlts/workload/classic.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::core {
namespace {

class HdltsClassic : public ::testing::Test {
 protected:
  HdltsClassic() : workload_(workload::classic_workload()),
                   problem_(workload_) {}

  /// Schedules with a recording decision sink attached.
  sim::Schedule schedule_recorded(obs::RecordingTrace& trace) const {
    Hdlts scheduler;
    scheduler.set_trace_sink(&trace);
    return scheduler.schedule(problem_);
  }

  sim::Workload workload_;
  sim::Problem problem_;
};

TEST_F(HdltsClassic, MakespanIs73) {
  const sim::Schedule s = Hdlts().schedule(problem_);
  EXPECT_TRUE(s.validate(problem_).empty());
  EXPECT_DOUBLE_EQ(s.makespan(), 73.0);
}

TEST_F(HdltsClassic, EntryDuplicatedOnP1AndP2) {
  obs::RecordingTrace trace;
  const sim::Schedule s = schedule_recorded(trace);
  // Primary on P3 (fastest, 9); duplicates on P1 [0,14] and P2 [0,16].
  EXPECT_EQ(s.placement(0).proc, 2u);
  std::vector<platform::ProcId> duplicated_on;
  for (const obs::DuplicationEvent& d : trace.duplications()) {
    if (d.accepted) duplicated_on.push_back(d.candidate_proc);
  }
  ASSERT_EQ(duplicated_on.size(), 2u);
  EXPECT_EQ(duplicated_on[0], 0u);
  EXPECT_EQ(duplicated_on[1], 1u);
  ASSERT_EQ(s.duplicates(0).size(), 2u);
  EXPECT_DOUBLE_EQ(s.duplicates(0)[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s.duplicates(0)[0].finish, 14.0);
  EXPECT_DOUBLE_EQ(s.duplicates(0)[1].finish, 16.0);
}

TEST_F(HdltsClassic, TableOneTraceReproducesExactly) {
  // Every row of the paper's Table I: the ready set, the selected task, its
  // EFT row over P1..P3, and the chosen processor. The penalty values are
  // checked to the paper's one printed decimal.
  obs::RecordingTrace trace;
  schedule_recorded(trace);
  ASSERT_EQ(trace.steps().size(), 10u);

  struct Row {
    std::vector<graph::TaskId> ready;  // 0-based task ids
    std::vector<double> pv;            // paper's printed PVs
    graph::TaskId selected;
    std::vector<double> eft;
    platform::ProcId chosen;
  };
  // Table I, translated to 0-based ids. Step 1's PV is the paper's known
  // misprint (prints 7.0; sample stddev of [14,16,9] is 3.6) — we assert
  // the correct value and record the discrepancy in EXPERIMENTS.md.
  const std::vector<Row> expected = {
      {{0}, {3.6}, 0, {14, 16, 9}, 2},
      {{1, 2, 3, 4, 5}, {4.6, 2.0, 1.5, 5.1, 7.1}, 5, {27, 32, 18}, 2},
      {{1, 2, 3, 4}, {4.9, 6.1, 5.7, 1.5}, 2, {25, 29, 37}, 0},
      {{1, 3, 4, 6}, {1.5, 7.4, 4.9, 16.9}, 6, {32, 63, 59}, 0},
      {{1, 3, 4}, {5.5, 10.5, 9.0}, 3, {45, 24, 35}, 1},
      {{1, 4}, {4.7, 8.0}, 4, {44, 37, 28}, 2},
      {{1}, {1.5}, 1, {45, 43, 46}, 1},
      {{7, 8}, {11.1, 13.3}, 8, {77, 55, 79}, 1},
      {{7}, {5.5}, 7, {67, 66, 76}, 1},
      {{9}, {13.2}, 9, {98, 73, 93}, 1},
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i + 1));
    const obs::RecordingTrace::StepRecord got =
        obs::itq_in_task_order(trace.steps()[i]);
    const Row& want = expected[i];
    EXPECT_EQ(got.itq_tasks, want.ready);
    ASSERT_EQ(got.itq_pv.size(), want.pv.size());
    for (std::size_t j = 0; j < want.pv.size(); ++j) {
      // The paper prints one decimal and truncates (e.g. 2.08 -> "2.0").
      EXPECT_NEAR(got.itq_pv[j], want.pv[j], 0.1);
    }
    EXPECT_EQ(got.selected, want.selected);
    ASSERT_EQ(got.eft.size(), want.eft.size());
    for (std::size_t j = 0; j < want.eft.size(); ++j) {
      EXPECT_NEAR(got.eft[j], want.eft[j], 1e-9);
    }
    EXPECT_EQ(got.chosen, want.chosen);
  }
}

TEST_F(HdltsClassic, BeatsEveryBaselineOnWorkedExample) {
  // §IV: HDLTS(73) < SDBATS(74) < PETS < HEFT(80) < PEFT/CPOP(~86).
  const double hdlts = Hdlts().schedule(problem_).makespan();
  for (auto& s : paper_schedulers()) {
    EXPECT_LE(hdlts, s->schedule(problem_).makespan()) << s->name();
  }
}

TEST_F(HdltsClassic, DuplicationRuleVariantsAgreeHere) {
  // Both Algorithm 1 readings duplicate on P1 and P2 for this graph.
  HdltsOptions any;
  any.duplication = DuplicationRule::kAnyChildBenefits;
  HdltsOptions all;
  all.duplication = DuplicationRule::kAllChildrenBenefit;
  EXPECT_DOUBLE_EQ(Hdlts(any).schedule(problem_).makespan(),
                   Hdlts(all).schedule(problem_).makespan());
}

TEST_F(HdltsClassic, NoDuplicationCostsTime) {
  HdltsOptions o;
  o.duplication = DuplicationRule::kOff;
  const double without = Hdlts(o).schedule(problem_).makespan();
  EXPECT_GT(without, 73.0);
}

TEST_F(HdltsClassic, PvVariantsProduceValidSchedules) {
  for (const PvKind kind : {PvKind::kSampleStddev, PvKind::kPopulationStddev,
                            PvKind::kRange}) {
    HdltsOptions o;
    o.pv = kind;
    const sim::Schedule s = Hdlts(o).schedule(problem_);
    EXPECT_TRUE(s.validate(problem_).empty());
  }
  // Sample and population stddev only differ by a constant factor sqrt((n-1)/n)
  // on equal-length vectors, so the argmax—and the schedule—must coincide.
  HdltsOptions pop;
  pop.pv = PvKind::kPopulationStddev;
  EXPECT_DOUBLE_EQ(Hdlts(pop).schedule(problem_).makespan(), 73.0);
}

TEST_F(HdltsClassic, StaticPriorityVariantIsValid) {
  HdltsOptions o;
  o.dynamic_priorities = false;
  const sim::Schedule s = Hdlts(o).schedule(problem_);
  EXPECT_TRUE(s.validate(problem_).empty());
}

TEST(Hdlts, MultidupReducesToAlgorithmOneOnSingleEntry) {
  // On a single-entry graph whose entry is scheduled first, the generalized
  // source duplication is exactly Algorithm 1 — identical schedule.
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  HdltsOptions o;
  o.duplicate_all_sources = true;
  const sim::Schedule a = Hdlts().schedule(p);
  const sim::Schedule b = Hdlts(o).schedule(p);
  EXPECT_DOUBLE_EQ(b.makespan(), 73.0);
  for (graph::TaskId v = 0; v < p.num_tasks(); ++v) {
    EXPECT_EQ(a.placement(v).proc, b.placement(v).proc);
    EXPECT_DOUBLE_EQ(a.placement(v).start, b.placement(v).start);
    EXPECT_EQ(a.duplicates(v).size(), b.duplicates(v).size());
  }
}

TEST(Hdlts, MultidupDuplicatesRealSourcesBehindPseudoEntry) {
  // Multi-entry graph: two real sources feeding one consumer with heavy
  // comm. Algorithm 1 verbatim duplicates nothing (pseudo entry is free);
  // the extension duplicates the sources.
  graph::TaskGraph g;
  for (int i = 0; i < 3; ++i) g.add_task();
  g.add_edge(0, 2, 50);
  g.add_edge(1, 2, 50);
  const auto n = graph::normalize_single_entry_exit(g);
  sim::CostTable costs(n.graph.num_tasks(), 2);
  for (graph::TaskId v = 0; v < 3; ++v) {
    costs.set(v, 0, 10);
    costs.set(v, 1, 12);
  }
  const sim::Workload w{n.graph, std::move(costs), platform::Platform(2)};
  const sim::Problem p(w);

  const sim::Schedule plain = Hdlts().schedule(p);
  std::size_t plain_dups = 0;
  for (graph::TaskId v = 0; v < p.num_tasks(); ++v) {
    plain_dups += plain.duplicates(v).size();
  }
  EXPECT_EQ(plain_dups, 0u);

  HdltsOptions o;
  o.duplicate_all_sources = true;
  const sim::Schedule multi = Hdlts(o).schedule(p);
  EXPECT_TRUE(multi.validate(p).empty());
  std::size_t multi_dups = 0;
  for (graph::TaskId v = 0; v < 2; ++v) {
    multi_dups += multi.duplicates(v).size();
  }
  EXPECT_GT(multi_dups, 0u);
  // Here duplication genuinely pays: both inputs become local.
  EXPECT_LT(multi.makespan(), plain.makespan());
}

TEST(Hdlts, MultiEntryGraphSkipsDuplicationButSchedules) {
  graph::TaskGraph g;
  for (int i = 0; i < 3; ++i) g.add_task();
  g.add_edge(0, 2, 5);
  g.add_edge(1, 2, 5);
  sim::CostTable costs(3, 2);
  for (graph::TaskId v = 0; v < 3; ++v) {
    costs.set(v, 0, 4);
    costs.set(v, 1, 6);
  }
  const sim::Workload w{std::move(g), std::move(costs),
                        platform::Platform(2)};
  const sim::Problem p(w);
  const sim::Schedule s = Hdlts().schedule(p);
  EXPECT_TRUE(s.validate(p).empty());
  EXPECT_TRUE(s.duplicates(0).empty());
  EXPECT_TRUE(s.duplicates(1).empty());
}

TEST(Hdlts, SingleProcessorNoDuplication) {
  workload::RandomDagParams params;
  params.num_tasks = 30;
  params.costs.num_procs = 1;
  const sim::Workload w = workload::random_workload(params, 3);
  const sim::Problem p(w);
  const sim::Schedule s = Hdlts().schedule(p);
  EXPECT_TRUE(s.validate(p).empty());
  for (graph::TaskId v = 0; v < p.num_tasks(); ++v) {
    EXPECT_TRUE(s.duplicates(v).empty());
  }
}

TEST(Hdlts, InsertionVariantNeverWorseOnClassic) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  HdltsOptions o;
  o.insertion = true;
  const sim::Schedule s = Hdlts(o).schedule(p);
  EXPECT_TRUE(s.validate(p).empty());
  EXPECT_LE(s.makespan(), 73.0 + 1e-9);
}

TEST(Registry, DefaultRegistryContainsEverything) {
  const sched::Registry r = default_registry();
  for (const char* name :
       {"hdlts", "hdlts-nodup", "hdlts-static", "hdlts-popstddev",
        "hdlts-range", "hdlts-insertion", "hdlts-multidup", "heft", "cpop",
        "pets", "peft", "sdbats", "mct", "random", "dls", "minmin", "maxmin",
        "dheft"}) {
    EXPECT_TRUE(r.contains(name)) << name;
    EXPECT_NE(r.make(name), nullptr) << name;
  }
  EXPECT_THROW(r.make("nope"), InvalidArgument);
}

TEST(Registry, RejectsDuplicateRegistration) {
  sched::Registry r = default_registry();
  EXPECT_THROW(r.add("hdlts", [] { return sched::SchedulerPtr{}; }),
               InvalidArgument);
}

TEST(Registry, PaperSchedulersOrderedAsReported) {
  const auto set = paper_schedulers();
  ASSERT_EQ(set.size(), 6u);
  EXPECT_EQ(set[0]->name(), "hdlts");
  EXPECT_EQ(set[1]->name(), "heft");
  EXPECT_EQ(set[5]->name(), "sdbats");
}

}  // namespace
}  // namespace hdlts::core
