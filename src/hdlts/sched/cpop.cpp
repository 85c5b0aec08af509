#include "hdlts/sched/cpop.hpp"

#include <algorithm>
#include <cmath>

#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/placement.hpp"
#include "hdlts/sched/ranking.hpp"

namespace hdlts::sched {

namespace {

constexpr double kTieEps = 1e-9;

void run_cpop(const sim::CompiledProblem& view, util::ScratchArena& arena,
              bool insertion, sim::Schedule& schedule) {
  const std::size_t n = view.num_tasks();
  const auto up = arena.alloc<double>(n);
  const auto down = arena.alloc<double>(n);
  upward_rank_mean(view, up);
  downward_rank_mean(view, down);
  const auto priority = arena.alloc<double>(n);
  for (graph::TaskId v = 0; v < n; ++v) priority[v] = up[v] + down[v];

  // Walk the critical path from the highest-priority entry task, always
  // following a child of (numerically) equal priority.
  const auto on_cp = arena.alloc<unsigned char>(n);
  std::fill(on_cp.begin(), on_cp.end(), 0);
  const auto entries = view.entry_tasks();
  graph::TaskId cursor = graph::kInvalidTask;
  double cp_len = -1.0;
  for (const graph::TaskId e : entries) {
    if (priority[e] > cp_len) {
      cp_len = priority[e];
      cursor = e;
    }
  }
  while (cursor != graph::kInvalidTask) {
    on_cp[cursor] = 1;
    graph::TaskId next = graph::kInvalidTask;
    double best = -1.0;
    for (const graph::Adjacent& c : view.children(cursor)) {
      if (std::abs(priority[c.task] - cp_len) <= kTieEps * (1.0 + cp_len) &&
          priority[c.task] > best) {
        best = priority[c.task];
        next = c.task;
      }
    }
    cursor = next;
  }

  // The critical-path processor minimizes the path's total execution time.
  platform::ProcId cp_proc = platform::kInvalidProc;
  double cp_cost = 0.0;
  for (const platform::ProcId p : view.procs()) {
    double total = 0.0;
    for (graph::TaskId v = 0; v < n; ++v) {
      if (on_cp[v] != 0) total += view.exec_time(v, p);
    }
    if (cp_proc == platform::kInvalidProc || total < cp_cost) {
      cp_cost = total;
      cp_proc = p;
    }
  }

  // Ready heap ordered by priority (ties: lower id for determinism). Arena-
  // backed push_heap/pop_heap — the same algorithm std::priority_queue runs,
  // so the service order is unchanged.
  auto cmp = [&priority](graph::TaskId a, graph::TaskId b) {
    if (priority[a] != priority[b]) return priority[a] < priority[b];
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
    const PlacementChoice choice =
        on_cp[v] != 0 ? eft_on(view, schedule, v, cp_proc, insertion)
                      : best_eft(view, schedule, v, insertion);
    commit(schedule, v, choice);
    for (const graph::Adjacent& c : view.children(v)) {
      if (--pending[c.task] == 0) push(c.task);
    }
  }
}

}  // namespace

sim::Schedule Cpop::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void Cpop::schedule_into(const sim::Problem& problem,
                         sim::Schedule& out) const {
  out.reset(problem.num_tasks(), problem.num_procs());
  scratch().reset();
  run_cpop(problem.compiled(), scratch(), insertion_, out);
  obs::emit_schedule(trace_sink(), name(), out);
}

}  // namespace hdlts::sched
