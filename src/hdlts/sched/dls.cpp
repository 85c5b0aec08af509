#include "hdlts/sched/dls.hpp"

#include <algorithm>
#include <limits>

#include "hdlts/sched/placement.hpp"

namespace hdlts::sched {

namespace {

/// Static levels: SL(v) = meanW(v) + max over children SL(c) (no comm).
void static_levels_view(const sim::CompiledProblem& view,
                        std::span<double> sl) {
  const auto order = view.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const graph::TaskId v = *it;
    double best = 0.0;
    for (const graph::Adjacent& c : view.children(v)) {
      best = std::max(best, sl[c.task]);
    }
    sl[v] = view.mean_cost(v) + best;
  }
}

void run_dls(const sim::CompiledProblem& view, util::ScratchArena& arena,
             bool insertion, sim::Schedule& schedule) {
  const std::size_t n = view.num_tasks();
  const auto sl = arena.alloc<double>(n);
  static_levels_view(view, sl);

  const auto pending = arena.alloc<std::size_t>(n);
  const auto ready = arena.alloc<graph::TaskId>(n);
  std::size_t ready_size = 0;
  for (graph::TaskId v = 0; v < n; ++v) {
    pending[v] = view.in_degree(v);
    if (pending[v] == 0) ready[ready_size++] = v;
  }

  while (ready_size > 0) {
    // Exhaustive (ready task, processor) scan; ties go to the lower task id
    // then lower processor id for determinism.
    std::size_t best_idx = 0;
    PlacementChoice best_choice;
    double best_dl = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ready_size; ++i) {
      const graph::TaskId v = ready[i];
      const double mean_cost = view.mean_cost(v);
      for (const platform::ProcId p : view.procs()) {
        const PlacementChoice c = eft_on(view, schedule, v, p, insertion);
        const double delta = mean_cost - view.exec_time(v, p);
        const double dl = sl[v] - c.est + delta;
        if (dl > best_dl) {
          best_dl = dl;
          best_idx = i;
          best_choice = c;
        }
      }
    }
    const graph::TaskId v = ready[best_idx];
    // Order-preserving removal, like vector::erase in the original.
    std::copy(ready.begin() + best_idx + 1, ready.begin() + ready_size,
              ready.begin() + best_idx);
    --ready_size;
    commit(schedule, v, best_choice);
    for (const graph::Adjacent& c : view.children(v)) {
      if (--pending[c.task] == 0) ready[ready_size++] = c.task;
    }
  }
}

}  // namespace

std::vector<double> static_levels(const sim::Problem& problem) {
  std::vector<double> sl(problem.num_tasks(), 0.0);
  static_levels_view(problem.compiled(), sl);
  return sl;
}

sim::Schedule Dls::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void Dls::schedule_into(const sim::Problem& problem, sim::Schedule& out) const {
  out.reset(problem.num_tasks(), problem.num_procs());
  scratch().reset();
  run_dls(problem.compiled(), scratch(), insertion_, out);
}

}  // namespace hdlts::sched
