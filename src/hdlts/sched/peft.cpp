#include "hdlts/sched/peft.hpp"

#include <algorithm>

#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/placement.hpp"
#include "hdlts/sched/ranking.hpp"

namespace hdlts::sched {

namespace {

void run_peft(const sim::CompiledProblem& view, util::ScratchArena& arena,
              bool insertion, sim::Schedule& schedule) {
  const std::size_t n = view.num_tasks();
  const auto& procs = view.procs();
  const std::size_t np = procs.size();
  const auto oct = arena.alloc<double>(n * np);
  oct_table(view, oct);
  const auto rank = arena.alloc<double>(n);
  oct_rank(view, oct, rank);

  // Ready heap: highest rank first, ties to the lower id (same service order
  // as the std::priority_queue this replaces — identical heap algorithm).
  auto cmp = [&rank](graph::TaskId a, graph::TaskId b) {
    if (rank[a] != rank[b]) return rank[a] < rank[b];
    return a > b;
  };
  const auto heap = arena.alloc<graph::TaskId>(n);
  std::size_t heap_size = 0;
  auto push = [&](graph::TaskId v) {
    heap[heap_size++] = v;
    std::push_heap(heap.begin(), heap.begin() + heap_size, cmp);
  };
  auto pop = [&]() {
    std::pop_heap(heap.begin(), heap.begin() + heap_size, cmp);
    return heap[--heap_size];
  };

  const auto pending = arena.alloc<std::size_t>(n);
  for (graph::TaskId v = 0; v < n; ++v) {
    pending[v] = view.in_degree(v);
    if (pending[v] == 0) push(v);
  }

  while (heap_size > 0) {
    const graph::TaskId v = pop();
    // Minimize O_EFT(v,p) = EFT(v,p) + OCT(v,p).
    PlacementChoice best;
    double best_oeft = 0.0;
    for (std::size_t pi = 0; pi < np; ++pi) {
      const PlacementChoice c = eft_on(view, schedule, v, procs[pi], insertion);
      const double oeft = c.eft + oct[v * np + pi];
      if (best.proc == platform::kInvalidProc || oeft < best_oeft) {
        best = c;
        best_oeft = oeft;
      }
    }
    commit(schedule, v, best);
    for (const graph::Adjacent& c : view.children(v)) {
      if (--pending[c.task] == 0) push(c.task);
    }
  }
}

}  // namespace

sim::Schedule Peft::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void Peft::schedule_into(const sim::Problem& problem,
                         sim::Schedule& out) const {
  out.reset(problem.num_tasks(), problem.num_procs());
  scratch().reset();
  run_peft(problem.compiled(), scratch(), insertion_, out);
  obs::emit_schedule(trace_sink(), name(), out);
}

}  // namespace hdlts::sched
