// Fully hand-verified schedules on a tiny diamond graph — every EST/EFT
// computed on paper, every placement asserted. Complements the Table I
// regression with a case small enough to audit by eye.
//
// Diamond: T0 -> {T1, T2} -> T3, every edge carrying 4 units of data.
// W (rows T0..T3, columns P1..P2):
//   T0: [2, 4]   T1: [3, 6]   T2: [6, 3]   T3: [2, 4]
// Bandwidth 1 everywhere, so comm time == 4 across processors.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/heft.hpp"
#include "hdlts/sched/pets.hpp"
#include "hdlts/sched/ranking.hpp"
#include "hdlts/sim/engine.hpp"

namespace hdlts::sched {
namespace {

sim::Workload diamond() {
  graph::TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task("T" + std::to_string(i));
  g.add_edge(0, 1, 4);
  g.add_edge(0, 2, 4);
  g.add_edge(1, 3, 4);
  g.add_edge(2, 3, 4);
  sim::CostTable w(4, 2);
  const double costs[4][2] = {{2, 4}, {3, 6}, {6, 3}, {2, 4}};
  for (graph::TaskId v = 0; v < 4; ++v) {
    w.set(v, 0, costs[v][0]);
    w.set(v, 1, costs[v][1]);
  }
  return sim::Workload{std::move(g), std::move(w), platform::Platform(2)};
}

TEST(HandVerified, HeftRanks) {
  // mean W: 3, 4.5, 4.5, 3. rank_u(T3) = 3;
  // rank_u(T1) = 4.5 + (4 + 3) = 11.5 = rank_u(T2);
  // rank_u(T0) = 3 + (4 + 11.5) = 18.5.
  const sim::Workload w = diamond();
  const sim::Problem p(w);
  const auto rank = upward_rank_mean(p);
  EXPECT_DOUBLE_EQ(rank[3], 3.0);
  EXPECT_DOUBLE_EQ(rank[1], 11.5);
  EXPECT_DOUBLE_EQ(rank[2], 11.5);
  EXPECT_DOUBLE_EQ(rank[0], 18.5);
}

TEST(HandVerified, HeftFullSchedule) {
  // List order: T0, then T1 (rank tie with T2 broken by topological
  // position), T2, T3.
  //   T0: EFT P1 = 2, P2 = 4            -> P1 [0, 2]
  //   T1: ready P1 = 2, P2 = 6; EFT P1 = 5, P2 = 12 -> P1 [2, 5]
  //   T2: EFT P1 = max(2, 5) + 6 = 11, P2 = 6 + 3 = 9 -> P2 [6, 9]
  //   T3: ready P1 = max(5, 13) = 13, P2 = max(9, 9) = 9;
  //       EFT P1 = 15, P2 = 13          -> P2 [9, 13]
  const sim::Workload w = diamond();
  const sim::Problem p(w);
  const sim::Schedule s = Heft().schedule(p);
  ASSERT_TRUE(s.validate(p).empty());
  EXPECT_EQ(s.placement(0).proc, 0u);
  EXPECT_DOUBLE_EQ(s.placement(0).start, 0.0);
  EXPECT_DOUBLE_EQ(s.placement(0).finish, 2.0);
  EXPECT_EQ(s.placement(1).proc, 0u);
  EXPECT_DOUBLE_EQ(s.placement(1).start, 2.0);
  EXPECT_DOUBLE_EQ(s.placement(1).finish, 5.0);
  EXPECT_EQ(s.placement(2).proc, 1u);
  EXPECT_DOUBLE_EQ(s.placement(2).start, 6.0);
  EXPECT_DOUBLE_EQ(s.placement(2).finish, 9.0);
  EXPECT_EQ(s.placement(3).proc, 1u);
  EXPECT_DOUBLE_EQ(s.placement(3).start, 9.0);
  EXPECT_DOUBLE_EQ(s.placement(3).finish, 13.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 13.0);
  // The replay engine confirms the hand arithmetic independently.
  const sim::EngineResult r = sim::replay(p, s);
  EXPECT_TRUE(r.exact_times);
}

TEST(HandVerified, PetsRanksOnDiamond) {
  // ACC: 3, 4.5, 4.5, 3. DTC: 8, 4, 4, 0. RPT: 0, 11, 11, 20.
  // rank = round(ACC + DTC + RPT): 11, 20, 20, 23.
  const sim::Workload w = diamond();
  const sim::Problem p(w);
  const PetsRank r = pets_rank(p);
  EXPECT_DOUBLE_EQ(r.rank[0], 11.0);
  EXPECT_DOUBLE_EQ(r.rank[1], 20.0);
  EXPECT_DOUBLE_EQ(r.rank[2], 20.0);
  EXPECT_DOUBLE_EQ(r.rank[3], 23.0);
}

TEST(HandVerified, HdltsEntryDuplicationDecision) {
  // HDLTS places T0 on P1 (EFT 2 vs 4). Algorithm 1 on P2: a duplicate
  // would finish at W(T0, P2) = 4, while the network delivers at
  // AFT + comm = 2 + 4 = 6 > 4 -> duplicate on P2 occupying [0, 4].
  const sim::Workload w = diamond();
  const sim::Problem p(w);
  obs::RecordingTrace trace;
  core::Hdlts hdlts;
  hdlts.set_trace_sink(&trace);
  const sim::Schedule s = hdlts.schedule(p);
  ASSERT_TRUE(s.validate(p).empty());
  EXPECT_EQ(s.placement(0).proc, 0u);
  ASSERT_EQ(s.duplicates(0).size(), 1u);
  EXPECT_EQ(s.duplicates(0)[0].proc, 1u);
  EXPECT_DOUBLE_EQ(s.duplicates(0)[0].finish, 4.0);
  // The recorded Algorithm-1 verdict, term by term.
  ASSERT_EQ(trace.duplications().size(), 1u);
  const obs::DuplicationEvent& dup = trace.duplications()[0];
  EXPECT_TRUE(dup.accepted);
  EXPECT_EQ(dup.candidate_proc, 1u);
  EXPECT_DOUBLE_EQ(dup.dup_finish, 4.0);
  EXPECT_DOUBLE_EQ(dup.best_arrival, 6.0);
  // With the duplicate, T2's ready time on P2 is 4, not 6: step 2 EFTs are
  // T1: [5, 10], T2: [8, 7]; PVs (sample stddev of 2 values =
  // |a-b|/sqrt(2)): T1 ~ 3.54, T2 ~ 0.71 -> T1 selected, to P1.
  ASSERT_GE(trace.steps().size(), 2u);
  const obs::RecordingTrace::StepRecord step2 =
      obs::itq_in_task_order(trace.steps()[1]);
  ASSERT_EQ(step2.itq_tasks, (std::vector<graph::TaskId>{1, 2}));
  EXPECT_NEAR(step2.itq_pv[0], 5.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(step2.itq_pv[1], 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_EQ(step2.selected, 1u);
  EXPECT_DOUBLE_EQ(step2.eft[0], 5.0);
  EXPECT_DOUBLE_EQ(step2.eft[1], 10.0);
}

}  // namespace
}  // namespace hdlts::sched
