#include "hdlts/sched/pets.hpp"

#include <algorithm>
#include <numeric>

#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/placement.hpp"
#include "hdlts/sched/ranking.hpp"

namespace hdlts::sched {

namespace {

void run_pets(const sim::CompiledProblem& view, util::ScratchArena& arena,
              bool insertion, sim::Schedule& schedule) {
  const std::size_t n = view.num_tasks();
  const auto level = view.levels();
  const auto acc = arena.alloc<double>(n);
  const auto dtc = arena.alloc<double>(n);
  const auto rpt = arena.alloc<double>(n);
  const auto rank = arena.alloc<double>(n);
  pets_rank(view, PetsRankSpans{acc, dtc, rpt, rank});

  // Level-major order; inside a level sort by decreasing rank, then by
  // increasing mean cost (favouring the cheaper task, per the PETS paper's
  // tie rule), then by id for determinism. Level-major order is
  // precedence-safe because every parent sits on a strictly lower level.
  const auto list = arena.alloc<graph::TaskId>(n);
  std::iota(list.begin(), list.end(), graph::TaskId{0});
  std::sort(list.begin(), list.end(), [&](graph::TaskId a, graph::TaskId b) {
    if (level[a] != level[b]) return level[a] < level[b];
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    if (acc[a] != acc[b]) return acc[a] < acc[b];
    return a < b;
  });

  for (const graph::TaskId v : list) {
    commit(schedule, v, best_eft(view, schedule, v, insertion));
  }
}

}  // namespace

sim::Schedule Pets::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void Pets::schedule_into(const sim::Problem& problem,
                         sim::Schedule& out) const {
  out.reset(problem.num_tasks(), problem.num_procs());
  scratch().reset();
  run_pets(problem.compiled(), scratch(), insertion_, out);
  obs::emit_schedule(trace_sink(), name(), out);
}

}  // namespace hdlts::sched
