// Processor-selection helpers shared by all EFT-based schedulers.
//
// The inline forms read the flat sim::CompiledProblem view the ported
// schedulers run on; the sim::Problem overloads below run the same code on
// problem.compiled() for the schedulers that take a sim::Problem directly.
#pragma once

#include <vector>

#include "hdlts/sim/problem.hpp"
#include "hdlts/sim/schedule.hpp"

namespace hdlts::sched {

struct PlacementChoice {
  platform::ProcId proc = platform::kInvalidProc;
  double est = 0.0;
  double eft = 0.0;
};

/// EST/EFT of `task` on processor `proc` given the current partial schedule
/// (Definitions 6 and 7). All parents must be placed.
inline PlacementChoice eft_on(const sim::CompiledProblem& view,
                              const sim::Schedule& schedule,
                              graph::TaskId task, platform::ProcId proc,
                              bool insertion) {
  const double ready = schedule.ready_time(view, task, proc);
  const double duration = view.exec_time(task, proc);
  const double est = schedule.earliest_start(proc, ready, duration, insertion);
  return {proc, est, est + duration};
}

/// The processor minimizing EFT (ties broken toward the lower processor id).
inline PlacementChoice best_eft(const sim::CompiledProblem& view,
                                const sim::Schedule& schedule,
                                graph::TaskId task, bool insertion) {
  PlacementChoice best;
  for (const platform::ProcId p : view.procs()) {
    const PlacementChoice c = eft_on(view, schedule, task, p, insertion);
    if (best.proc == platform::kInvalidProc || c.eft < best.eft) best = c;
  }
  HDLTS_ENSURES(best.proc != platform::kInvalidProc);
  return best;
}

PlacementChoice eft_on(const sim::Problem& problem,
                       const sim::Schedule& schedule, graph::TaskId task,
                       platform::ProcId proc, bool insertion);

/// EFT of `task` on every alive processor, in problem.procs() order. This is
/// the vector whose sample standard deviation is the HDLTS penalty value.
std::vector<double> eft_vector(const sim::Problem& problem,
                               const sim::Schedule& schedule,
                               graph::TaskId task, bool insertion);

PlacementChoice best_eft(const sim::Problem& problem,
                         const sim::Schedule& schedule, graph::TaskId task,
                         bool insertion);

/// Places `task` at `choice` (primary placement).
void commit(sim::Schedule& schedule, graph::TaskId task,
            const PlacementChoice& choice);

}  // namespace hdlts::sched
