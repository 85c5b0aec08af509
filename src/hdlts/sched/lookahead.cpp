#include "hdlts/sched/lookahead.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "hdlts/sched/placement.hpp"
#include "hdlts/sched/ranking.hpp"

namespace hdlts::sched {

namespace {

void run_lookahead(const sim::CompiledProblem& view, util::ScratchArena& arena,
                   bool insertion, sim::Schedule& schedule) {
  const std::size_t n = view.num_tasks();
  const auto rank = arena.alloc<double>(n);
  upward_rank_mean(view, rank);
  const auto order = view.topo_order();
  const auto topo_pos = arena.alloc<std::size_t>(n);
  for (std::size_t i = 0; i < n; ++i) topo_pos[order[i]] = i;

  const auto list = arena.alloc<graph::TaskId>(n);
  std::iota(list.begin(), list.end(), graph::TaskId{0});
  std::sort(list.begin(), list.end(), [&](graph::TaskId a, graph::TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return topo_pos[a] < topo_pos[b];
  });

  for (const graph::TaskId v : list) {
    // Most critical child: the one with the highest upward rank.
    graph::TaskId crit = graph::kInvalidTask;
    for (const graph::Adjacent& c : view.children(v)) {
      if (crit == graph::kInvalidTask || rank[c.task] > rank[crit]) {
        crit = c.task;
      }
    }

    PlacementChoice best;
    double best_score = std::numeric_limits<double>::infinity();
    for (const platform::ProcId p : view.procs()) {
      const PlacementChoice cand = eft_on(view, schedule, v, p, insertion);
      double score = cand.eft;
      if (crit != graph::kInvalidTask) {
        // Rollout: if v ran on p, how early could the critical child finish?
        // Its other parents may be unplaced (they come later in rank order),
        // so this is an optimistic estimate — exactly the flavour of the
        // published lookahead.
        const double crit_data = view.edge_data(v, crit);
        double child_best = std::numeric_limits<double>::infinity();
        for (const platform::ProcId q : view.procs()) {
          double ready = cand.eft + view.comm_time_data(crit_data, p, q);
          for (const graph::Adjacent& parent : view.parents(crit)) {
            if (parent.task == v || !schedule.is_placed(parent.task)) {
              continue;
            }
            const sim::Placement& pl = schedule.placement(parent.task);
            ready = std::max(ready, pl.finish + view.comm_time_data(
                                                    parent.data, pl.proc, q));
          }
          // The child also needs q free; v occupying p is the only change
          // we can see — approximate with the current timeline plus v.
          double avail = schedule.proc_available(q);
          if (q == p) avail = std::max(avail, cand.eft);
          const double est = std::max(ready, avail);
          child_best = std::min(est + view.exec_time(crit, q), child_best);
        }
        score = child_best;
      }
      if (score < best_score || (score == best_score && cand.eft < best.eft)) {
        best_score = score;
        best = cand;
      }
    }
    commit(schedule, v, best);
  }
}

}  // namespace

sim::Schedule LookaheadHeft::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void LookaheadHeft::schedule_into(const sim::Problem& problem,
                                  sim::Schedule& out) const {
  out.reset(problem.num_tasks(), problem.num_procs());
  scratch().reset();
  run_lookahead(problem.compiled(), scratch(), insertion_, out);
}

}  // namespace hdlts::sched
