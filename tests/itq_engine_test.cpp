// Unit tests for core::ItqEngine, the ITQ state every HDLTS mode drives:
// its three per-mode inputs (the EST floor, the live columns and the rank
// rule) and its slot bookkeeping, checked on a hand-sized problem where
// every EFT cell can be written down. The schedule-level identities of the
// modes built on it live in hdlts_test, online_test and stream_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "hdlts/core/itq_engine.hpp"
#include "hdlts/sim/problem.hpp"

namespace hdlts::core {
namespace {

constexpr PvKind kPvKinds[] = {PvKind::kSampleStddev,
                               PvKind::kPopulationStddev, PvKind::kRange};

/// Four independent tasks on three processors, W(v, p) = {10 + v, 4 + v,
/// 7 + 2v}: processor 1 is the fastest for every task.
sim::Workload independent_workload() {
  graph::TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task();
  sim::CostTable w(4, 3);
  for (graph::TaskId v = 0; v < 4; ++v) {
    const double x = static_cast<double>(v);
    w.set(v, 0, 10 + x);
    w.set(v, 1, 4 + x);
    w.set(v, 2, 7 + 2 * x);
  }
  return sim::Workload{std::move(g), std::move(w), platform::Platform(3)};
}

std::vector<double> copy_of(std::span<const double> xs) {
  return {xs.begin(), xs.end()};
}

TEST(ItqEngine, ArrivalOrderPicksFirstPushedNotLowestId) {
  // kArrivalOrder keys an entry by −(push order) across the whole run, so
  // a swap-remove reshuffling the queue positions must not change the pick:
  // task 0 lands in the position task 3 left and must still wait for 2.
  const sim::Workload w = independent_workload();
  const sim::Problem problem(w);
  const sim::CompiledProblem& cp = problem.compiled();
  util::ScratchArena arena;
  const sim::Schedule schedule(cp.num_tasks(), cp.num_procs());
  ItqEngine itq(arena, cp, schedule, PvKind::kSampleStddev,
                ItqRank::kArrivalOrder, /*insertion=*/false);
  std::vector<graph::TaskId> picked;
  auto pop = [&] {
    const std::size_t pos = itq.pick();
    picked.push_back(itq.task(pos));
    itq.remove(pos);
  };
  itq.push(3, 0.0);
  itq.push(1, 0.0);
  itq.push(2, 0.0);
  pop();
  itq.push(0, 0.0);
  while (!itq.empty()) pop();
  EXPECT_EQ(picked, (std::vector<graph::TaskId>{3, 1, 2, 0}));
}

TEST(ItqEngine, FloorLiftsEveryEftCell) {
  // Each cell is earliest_start(p, max(ready, floor), W, insertion) + W.
  // Processor 1 is busy over [0, 20]: below that the floor changes nothing
  // there, above it the floor decides; on the idle processors it always
  // does. Insertion finds no earlier gap, so both settings agree.
  const sim::Workload w = independent_workload();
  const sim::Problem problem(w);
  const sim::CompiledProblem& cp = problem.compiled();
  const graph::TaskId v = 2;
  for (const bool insertion : {false, true}) {
    for (const double floor : {0.0, 12.5, 25.0}) {
      SCOPED_TRACE("insertion " + std::to_string(insertion) + ", floor " +
                   std::to_string(floor));
      util::ScratchArena arena;
      sim::Schedule schedule(cp.num_tasks(), cp.num_procs());
      schedule.place(0, 1, 0.0, 20.0);
      ItqEngine itq(arena, cp, schedule, PvKind::kSampleStddev,
                    ItqRank::kDynamicPv, insertion);
      itq.push(v, floor);
      const auto row = itq.row(0);
      ASSERT_EQ(row.size(), 3u);
      EXPECT_EQ(row[0], floor + cp.exec_time(v, 0));
      EXPECT_EQ(row[1], std::max(floor, 20.0) + cp.exec_time(v, 1));
      EXPECT_EQ(row[2], floor + cp.exec_time(v, 2));
      EXPECT_EQ(itq.keys()[0], penalty_value(PvKind::kSampleStddev, row));
    }
  }
}

TEST(ItqEngine, DeadColumnReadsInfinityAndIsNeverChosen) {
  // With the fastest processor's column dead, its cell is +inf, the key is
  // the PV of the two live cells, and the min-EFT pick falls on a live
  // column. restart() without a mask brings the column back.
  const sim::Workload w = independent_workload();
  const sim::Problem problem(w);
  const sim::CompiledProblem& cp = problem.compiled();
  const std::vector<unsigned char> live = {1, 0, 1};
  for (const PvKind pv : kPvKinds) {
    SCOPED_TRACE("pv " + std::to_string(static_cast<int>(pv)));
    util::ScratchArena arena;
    const sim::Schedule schedule(cp.num_tasks(), cp.num_procs());
    ItqEngine itq(arena, cp, schedule, pv, ItqRank::kDynamicPv,
                  /*insertion=*/false);
    itq.restart(live);
    for (graph::TaskId v = 0; v < 4; ++v) itq.push(v, 0.0);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto row = itq.row(i);
      EXPECT_EQ(row[1], std::numeric_limits<double>::infinity());
      const std::vector<double> live_cells = {row[0], row[2]};
      EXPECT_EQ(itq.keys()[i], penalty_value(pv, live_cells));
      EXPECT_EQ(itq.min_eft_column(row), row[2] < row[0] ? 2u : 0u);
    }
    itq.restart();
    EXPECT_TRUE(itq.empty());
    itq.push(0, 0.0);
    EXPECT_EQ(itq.min_eft_column(itq.row(0)), 1u);
    EXPECT_EQ(itq.keys()[0], penalty_value(pv, itq.row(0)));
  }
}

TEST(ItqEngine, RefreshMovesDynamicKeysAndLeavesFrozenKeys) {
  // Placing a task on processor 1 moves that column of every queued row
  // under both PV rules; only kDynamicPv lets the key follow the row.
  const sim::Workload w = independent_workload();
  const sim::Problem problem(w);
  const sim::CompiledProblem& cp = problem.compiled();
  for (const PvKind pv : kPvKinds) {
    SCOPED_TRACE("pv " + std::to_string(static_cast<int>(pv)));
    util::ScratchArena arena_dynamic;
    util::ScratchArena arena_frozen;
    sim::Schedule schedule(cp.num_tasks(), cp.num_procs());
    ItqEngine dynamic(arena_dynamic, cp, schedule, pv, ItqRank::kDynamicPv,
                      /*insertion=*/false);
    ItqEngine frozen(arena_frozen, cp, schedule, pv, ItqRank::kFrozenPv,
                     /*insertion=*/false);
    for (graph::TaskId v = 1; v < 4; ++v) {
      dynamic.push(v, 0.0);
      frozen.push(v, 0.0);
    }
    const std::vector<double> pushed = copy_of(frozen.keys());
    EXPECT_EQ(copy_of(dynamic.keys()), pushed);

    const std::uint64_t mark = schedule.state_version();
    schedule.place(0, 1, 0.0, cp.exec_time(0, 1));
    dynamic.refresh(mark);
    frozen.refresh(mark);
    for (std::size_t i = 0; i < 3; ++i) {
      const graph::TaskId v = dynamic.task(i);
      const auto row = dynamic.row(i);
      EXPECT_EQ(row[1], cp.exec_time(0, 1) + cp.exec_time(v, 1));
      EXPECT_EQ(copy_of(row), copy_of(frozen.row(i)));
      EXPECT_EQ(dynamic.keys()[i], penalty_value(pv, row));
      EXPECT_NE(dynamic.keys()[i], pushed[i]);
    }
    EXPECT_EQ(copy_of(frozen.keys()), pushed);
    // One dirty column times three queued entries.
    EXPECT_EQ(dynamic.eft_refreshes(), 3u);
    EXPECT_EQ(frozen.eft_refreshes(), 3u);
  }
}

TEST(ItqEngine, SlotsRecycleAndHighWaterTracksPeakWidth) {
  // A removed entry's row stays readable until the next push, which may
  // reuse its slot and must then hold the new task's cells; the high-water
  // mark counts the widest ITQ pick() saw since construction.
  const sim::Workload w = independent_workload();
  const sim::Problem problem(w);
  const sim::CompiledProblem& cp = problem.compiled();
  util::ScratchArena arena;
  const sim::Schedule schedule(cp.num_tasks(), cp.num_procs());
  ItqEngine itq(arena, cp, schedule, PvKind::kRange, ItqRank::kDynamicPv,
                /*insertion=*/false);
  for (graph::TaskId v = 0; v < 3; ++v) itq.push(v, 0.0);
  EXPECT_EQ(itq.high_water(), 0u);
  std::size_t pos = itq.pick();
  EXPECT_EQ(itq.high_water(), 3u);
  const graph::TaskId gone = itq.task(pos);
  const auto row = itq.row(pos);
  const std::vector<double> before = copy_of(row);
  itq.remove(pos);
  EXPECT_EQ(copy_of(row), before);
  EXPECT_EQ(itq.tasks().size(), 2u);

  itq.push(3, 0.0);
  // Every entry, the recycled one and the two that stayed, holds its own
  // cells: on an empty schedule a row is W(v, ·).
  for (std::size_t i = 0; i < itq.tasks().size(); ++i) {
    const auto cells = itq.row(i);
    for (std::size_t ci = 0; ci < 3; ++ci) {
      EXPECT_EQ(cells[ci], cp.exec_time(itq.task(i), cp.procs()[ci]))
          << "entry " << i;
    }
  }
  while (!itq.empty()) {
    pos = itq.pick();
    EXPECT_NE(itq.task(pos), gone);
    itq.remove(pos);
  }
  EXPECT_EQ(itq.high_water(), 3u);

  itq.restart();
  itq.push(1, 0.0);
  EXPECT_EQ(itq.task(itq.pick()), 1u);
  EXPECT_EQ(itq.high_water(), 3u);
}

}  // namespace
}  // namespace hdlts::core
