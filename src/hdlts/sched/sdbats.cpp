#include "hdlts/sched/sdbats.hpp"

#include <algorithm>
#include <numeric>

#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/placement.hpp"
#include "hdlts/sched/ranking.hpp"

namespace hdlts::sched {

namespace {

void run_sdbats(const sim::CompiledProblem& view, util::ScratchArena& arena,
                bool insertion, bool entry_duplication,
                sim::Schedule& schedule) {
  const std::size_t n = view.num_tasks();
  const auto rank = arena.alloc<double>(n);
  upward_rank_stddev(view, rank);
  const auto order = view.topo_order();
  const auto topo_pos = arena.alloc<std::size_t>(n);
  for (std::size_t i = 0; i < n; ++i) topo_pos[order[i]] = i;

  const auto list = arena.alloc<graph::TaskId>(n);
  std::iota(list.begin(), list.end(), graph::TaskId{0});
  std::sort(list.begin(), list.end(), [&](graph::TaskId a, graph::TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return topo_pos[a] < topo_pos[b];
  });

  // Entry duplication: run the entry task on every processor from t = 0, so
  // each child sees its input locally. Only applies to single-entry graphs
  // (generators normalize multi-entry workflows with a pseudo task).
  const auto entries = view.entry_tasks();
  if (entry_duplication && entries.size() == 1 && n > 1) {
    const graph::TaskId entry = entries[0];
    const PlacementChoice primary = best_eft(view, schedule, entry, false);
    commit(schedule, entry, primary);
    for (const platform::ProcId p : view.procs()) {
      if (p == primary.proc) continue;
      schedule.place_duplicate(entry, p, 0.0, view.exec_time(entry, p));
    }
  }

  for (const graph::TaskId v : list) {
    if (schedule.is_placed(v)) continue;  // entry already handled
    commit(schedule, v, best_eft(view, schedule, v, insertion));
  }
}

}  // namespace

sim::Schedule Sdbats::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void Sdbats::schedule_into(const sim::Problem& problem,
                           sim::Schedule& out) const {
  out.reset(problem.num_tasks(), problem.num_procs());
  scratch().reset();
  run_sdbats(problem.compiled(), scratch(), insertion_, entry_duplication_,
             out);
  obs::emit_schedule(trace_sink(), name(), out);
}

}  // namespace hdlts::sched
