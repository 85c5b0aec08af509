#include "hdlts/sched/placement.hpp"

namespace hdlts::sched {

PlacementChoice eft_on(const sim::Problem& problem,
                       const sim::Schedule& schedule, graph::TaskId task,
                       platform::ProcId proc, bool insertion) {
  return eft_on(problem.compiled(), schedule, task, proc, insertion);
}

std::vector<double> eft_vector(const sim::Problem& problem,
                               const sim::Schedule& schedule,
                               graph::TaskId task, bool insertion) {
  const auto& procs = problem.procs();
  std::vector<double> out;
  out.reserve(procs.size());
  for (const platform::ProcId p : procs) {
    out.push_back(eft_on(problem, schedule, task, p, insertion).eft);
  }
  return out;
}

PlacementChoice best_eft(const sim::Problem& problem,
                         const sim::Schedule& schedule, graph::TaskId task,
                         bool insertion) {
  return best_eft(problem.compiled(), schedule, task, insertion);
}

void commit(sim::Schedule& schedule, graph::TaskId task,
            const PlacementChoice& choice) {
  schedule.place(task, choice.proc, choice.est, choice.eft);
}

}  // namespace hdlts::sched
