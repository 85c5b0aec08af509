#include "hdlts/sched/dheft.hpp"

#include <algorithm>
#include <numeric>

#include "hdlts/graph/algorithms.hpp"
#include "hdlts/sched/placement.hpp"
#include "hdlts/sched/ranking.hpp"

namespace hdlts::sched {

namespace {

struct DupChoice {
  PlacementChoice task;                        ///< placement for the task
  graph::TaskId parent = graph::kInvalidTask;  ///< duplicated parent, if any
  double dup_start = 0.0;
  double dup_finish = 0.0;
};

}  // namespace

sim::Schedule Dheft::schedule(const sim::Problem& problem) const {
  const auto& g = problem.graph();
  const auto rank = upward_rank_mean(problem);
  const auto order = graph::topological_order(g);
  std::vector<std::size_t> topo_pos(problem.num_tasks());
  for (std::size_t i = 0; i < order.size(); ++i) topo_pos[order[i]] = i;

  std::vector<graph::TaskId> list(problem.num_tasks());
  std::iota(list.begin(), list.end(), 0);
  std::sort(list.begin(), list.end(), [&](graph::TaskId a, graph::TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return topo_pos[a] < topo_pos[b];
  });

  sim::Schedule schedule(problem.num_tasks(), problem.num_procs());
  for (const graph::TaskId v : list) {
    DupChoice best;
    bool first = true;
    for (const platform::ProcId p : problem.procs()) {
      // Plain HEFT candidate.
      DupChoice cand;
      cand.task = eft_on(problem, schedule, v, p, insertion_);
      // Critical-parent duplication candidate: find the parent whose data
      // arrival on p dominates the ready time, and see whether running a
      // local copy of it (in an idle slot) beats the network delivery.
      graph::TaskId crit = graph::kInvalidTask;
      double crit_arrival = 0.0;
      for (const graph::Adjacent& parent : g.parents(v)) {
        const sim::Placement& pl = schedule.placement(parent.task);
        double arrival =
            pl.finish + problem.comm_time_data(parent.data, pl.proc, p);
        for (const sim::Placement& d : schedule.duplicates(parent.task)) {
          arrival = std::min(
              arrival,
              d.finish + problem.comm_time_data(parent.data, d.proc, p));
        }
        if (arrival > crit_arrival) {
          crit_arrival = arrival;
          crit = parent.task;
        }
      }
      if (crit != graph::kInvalidTask &&
          schedule.placement(crit).proc != p) {
        const double dup_ready = schedule.ready_time(problem, crit, p);
        const double dup_dur = problem.exec_time(crit, p);
        const double dup_start =
            schedule.earliest_start(p, dup_ready, dup_dur, insertion_);
        const double dup_finish = dup_start + dup_dur;
        if (dup_finish < crit_arrival) {
          // Ready time of v on p with the duplicate present: the critical
          // parent now delivers locally at dup_finish; other parents are
          // unchanged. v can only use slots at or after dup_finish, so the
          // pre-duplication timeline gives the exact EST.
          double ready = dup_finish;
          for (const graph::Adjacent& parent : g.parents(v)) {
            if (parent.task == crit) continue;
            const sim::Placement& pl = schedule.placement(parent.task);
            double arrival =
                pl.finish + problem.comm_time_data(parent.data, pl.proc, p);
            for (const sim::Placement& d :
                 schedule.duplicates(parent.task)) {
              arrival = std::min(arrival,
                                 d.finish + problem.comm_time_data(
                                                parent.data, d.proc, p));
            }
            ready = std::max(ready, arrival);
          }
          const double dur = problem.exec_time(v, p);
          const double est =
              schedule.earliest_start(p, ready, dur, insertion_);
          if (est + dur < cand.task.eft) {
            cand.task = {p, est, est + dur};
            cand.parent = crit;
            cand.dup_start = dup_start;
            cand.dup_finish = dup_finish;
          }
        }
      }
      if (first || cand.task.eft < best.task.eft) {
        first = false;
        best = cand;
      }
    }
    if (best.parent != graph::kInvalidTask) {
      schedule.place_duplicate(best.parent, best.task.proc, best.dup_start,
                               best.dup_finish);
      // The duplicate may consume the very slot the task was quoted, when
      // both target the same gap; recompute the task's EST against the
      // updated timeline (it can only stay equal or move later within the
      // same gap family, preserving correctness).
      const double dur = problem.exec_time(v, best.task.proc);
      const double ready =
          std::max(schedule.ready_time(problem, v, best.task.proc),
                   best.dup_finish);
      const double est = schedule.earliest_start(best.task.proc, ready, dur,
                                                 insertion_);
      best.task.est = est;
      best.task.eft = est + dur;
    }
    commit(schedule, v, best.task);
  }
  return schedule;
}

}  // namespace hdlts::sched
