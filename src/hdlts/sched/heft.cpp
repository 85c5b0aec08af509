#include "hdlts/sched/heft.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/placement.hpp"
#include "hdlts/sched/ranking.hpp"
#include "hdlts/simd/kernels.hpp"

namespace hdlts::sched {

namespace {

void run_heft(const sim::CompiledProblem& view, util::ScratchArena& arena,
              bool insertion, sim::Schedule& schedule,
              obs::DecisionTrace* sink) {
  const std::size_t n = view.num_tasks();
  const auto rank = arena.alloc<double>(n);
  upward_rank_mean(view, rank);
  const auto order = view.topo_order();

  // Position of each task in topological order; used to break rank ties in a
  // precedence-safe way (zero-weight pseudo tasks can tie with a parent).
  const auto topo_pos = arena.alloc<std::size_t>(n);
  for (std::size_t i = 0; i < n; ++i) topo_pos[order[i]] = i;

  const auto list = arena.alloc<graph::TaskId>(n);
  std::iota(list.begin(), list.end(), graph::TaskId{0});
  std::sort(list.begin(), list.end(), [&](graph::TaskId a, graph::TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return topo_pos[a] < topo_pos[b];
  });

  if (sink != nullptr) {
    sink->on_begin({"heft", n, view.procs().size()});
  }
  // Processor selection goes through the argmin kernel: fill the EST/EFT
  // row for the alive processors, then take the first minimum — the same
  // index the strict-less scan in best_eft produces (EFTs are finite).
  const auto procs = view.procs();
  const std::size_t np = procs.size();
  const auto est_row = arena.alloc<double>(np);
  const auto eft_row = arena.alloc<double>(np);
  std::size_t step = 0;
  for (const graph::TaskId v : list) {
    for (std::size_t pi = 0; pi < np; ++pi) {
      const PlacementChoice c = eft_on(view, schedule, v, procs[pi], insertion);
      est_row[pi] = c.est;
      eft_row[pi] = c.eft;
    }
    const std::size_t bi = simd::argmin(eft_row.data(), np);
    const PlacementChoice choice{procs[bi], est_row[bi], eft_row[bi]};
    if (sink != nullptr) {
      obs::StepEvent ev;
      ev.step = step;
      ev.selected = v;
      ev.eft = eft_row;
      ev.chosen = choice.proc;
      ev.start = choice.est;
      ev.finish = choice.eft;
      sink->on_step(ev);
    }
    ++step;
    commit(schedule, v, choice);
    if (sink != nullptr) {
      sink->on_placement({v, choice.proc, choice.est, choice.eft, false});
    }
  }
  if (sink != nullptr) {
    obs::ScheduleEndEvent end;
    end.makespan = schedule.makespan();
    end.steps = step;
    sink->on_end(end);
  }
}

}  // namespace

sim::Schedule Heft::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void Heft::schedule_into(const sim::Problem& problem,
                         sim::Schedule& out) const {
  out.reset(problem.num_tasks(), problem.num_procs());
  scratch().reset();
  run_heft(problem.compiled(), scratch(), insertion_, out, trace_sink());
}

}  // namespace hdlts::sched
