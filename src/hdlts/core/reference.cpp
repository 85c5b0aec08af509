#include "hdlts/core/reference.hpp"

#include <algorithm>
#include <numeric>

#include "hdlts/graph/algorithms.hpp"

namespace hdlts::core {

namespace {

// Must match sim/schedule.cpp so the brute-force scans treat zero-duration
// pseudo-task records identically to the optimized queries.
constexpr double kEps = 1e-7;

/// Availability by full timeline scan (the pre-incremental proc_available).
double scan_avail(const sim::Schedule& schedule, platform::ProcId proc) {
  double avail = 0.0;
  for (const sim::Placement& pl : schedule.timeline(proc)) {
    avail = std::max(avail, pl.finish);
  }
  return avail;
}

/// Earliest start by full timeline scan (the pre-incremental earliest_start).
double scan_earliest_start(const sim::Schedule& schedule,
                           platform::ProcId proc, double ready,
                           double duration, bool insertion) {
  if (!insertion) return std::max(ready, scan_avail(schedule, proc));
  if (duration <= kEps) return ready;
  double cursor = ready;
  for (const sim::Placement& pl : schedule.timeline(proc)) {
    if (pl.finish - pl.start <= kEps) continue;
    if (pl.start >= cursor + duration - kEps) break;
    cursor = std::max(cursor, pl.finish);
  }
  return cursor;
}

struct RefEntry {
  graph::TaskId task = graph::kInvalidTask;
  std::vector<double> ready;
  double frozen_pv = 0.0;
};

}  // namespace

sim::Schedule ReferenceHdlts::schedule(const sim::Problem& problem) const {
  const auto& g = problem.graph();
  const auto& procs = problem.procs();
  const std::size_t np = procs.size();
  sim::Schedule schedule(problem.num_tasks(), problem.num_procs());

  const auto entries = g.entry_tasks();
  const bool unique_entry = entries.size() == 1;

  std::vector<std::size_t> pending(g.num_tasks());
  std::vector<RefEntry> itq;

  auto eft_row = [&](const RefEntry& e) {
    std::vector<double> row(np);
    for (std::size_t pi = 0; pi < np; ++pi) {
      const platform::ProcId p = procs[pi];
      const double duration = problem.exec_time(e.task, p);
      const double est = scan_earliest_start(schedule, p, e.ready[pi],
                                             duration, options_.insertion);
      row[pi] = est + duration;
    }
    return row;
  };

  auto push_ready = [&](graph::TaskId v) {
    RefEntry e;
    e.task = v;
    e.ready.resize(np);
    for (std::size_t pi = 0; pi < np; ++pi) {
      e.ready[pi] = schedule.ready_time(problem, v, procs[pi]);
    }
    if (!options_.dynamic_priorities) {
      e.frozen_pv = penalty_value(options_.pv, eft_row(e));
    }
    itq.push_back(std::move(e));
  };

  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    pending[v] = g.in_degree(v);
    if (pending[v] == 0) push_ready(v);
  }

  auto is_free_task = [&](graph::TaskId v) {
    const auto row = problem.costs().row(v);
    for (const double c : row) {
      if (c > 0.0) return false;
    }
    return true;
  };
  auto qualifies_for_duplication = [&](graph::TaskId v) {
    if (options_.duplication == DuplicationRule::kOff) return false;
    if (unique_entry && v == entries.front()) return true;
    if (!options_.duplicate_all_sources) return false;
    const auto parents = g.parents(v);
    if (parents.empty()) return true;
    for (const graph::Adjacent& p : parents) {
      if (!is_free_task(p.task)) return false;
    }
    return true;
  };

  auto duplicate_task = [&](graph::TaskId v) {
    const auto children = g.children(v);
    if (children.empty() || is_free_task(v)) return;
    const sim::Placement& primary = schedule.placement(v);
    for (const platform::ProcId k : procs) {
      if (k == primary.proc) continue;
      const double dup_dur = problem.exec_time(v, k);
      const double dup_ready = schedule.ready_time(problem, v, k);
      const double dup_start = scan_earliest_start(schedule, k, dup_ready,
                                                   dup_dur, /*insertion=*/true);
      const double dup_finish = dup_start + dup_dur;
      std::size_t benefits = 0;
      for (const graph::Adjacent& c : children) {
        const double arrival =
            primary.finish + problem.comm_time_data(c.data, primary.proc, k);
        if (dup_finish < arrival) ++benefits;
      }
      const bool do_duplicate =
          options_.duplication == DuplicationRule::kAnyChildBenefits
              ? benefits > 0
              : benefits == children.size();
      if (do_duplicate) schedule.place_duplicate(v, k, dup_start, dup_finish);
    }
  };

  while (!itq.empty()) {
    std::vector<double> pv(itq.size());
    for (std::size_t i = 0; i < itq.size(); ++i) {
      pv[i] = options_.dynamic_priorities
                  ? penalty_value(options_.pv, eft_row(itq[i]))
                  : itq[i].frozen_pv;
    }
    std::size_t pick = 0;
    for (std::size_t i = 1; i < itq.size(); ++i) {
      if (pv[i] > pv[pick] ||
          (pv[i] == pv[pick] && itq[i].task < itq[pick].task)) {
        pick = i;
      }
    }

    const RefEntry chosen_entry = std::move(itq[pick]);
    itq.erase(itq.begin() + static_cast<std::ptrdiff_t>(pick));
    const auto row = eft_row(chosen_entry);
    std::size_t best = 0;
    for (std::size_t pi = 1; pi < np; ++pi) {
      if (row[pi] < row[best]) best = pi;
    }
    if (options_.energy_weight != 0.0) {
      // Weighted rule: the first minimum of EFT + weight * dynamic energy
      // among the processors that meet the deadline; when none does, the
      // min-EFT pick above stands.
      const platform::Platform& plat = problem.platform();
      bool eligible = false;
      double best_key = 0.0;
      for (std::size_t pi = 0; pi < np; ++pi) {
        if (row[pi] > options_.deadline) continue;
        const platform::ProcId p = procs[pi];
        const double dyn = problem.exec_time(chosen_entry.task, p) *
                           (plat.busy_power(p) - plat.idle_power(p));
        const double key = row[pi] + options_.energy_weight * dyn;
        if (!eligible || key < best_key) {
          best = pi;
          best_key = key;
          eligible = true;
        }
      }
    }
    const platform::ProcId proc = procs[best];
    const double finish = row[best];
    const double start = finish - problem.exec_time(chosen_entry.task, proc);

    schedule.place(chosen_entry.task, proc, start, finish);
    if (qualifies_for_duplication(chosen_entry.task)) {
      duplicate_task(chosen_entry.task);
    }
    for (const graph::Adjacent& c : g.children(chosen_entry.task)) {
      if (--pending[c.task] == 0) push_ready(c.task);
    }
  }

  HDLTS_ENSURES(schedule.num_placed() == problem.num_tasks());
  return schedule;
}

sim::Schedule ReferenceHeft::schedule(const sim::Problem& problem) const {
  const auto& g = problem.graph();
  const auto order = graph::topological_order(g);

  // Upward rank straight from the mutable structures, independent of the
  // compiled view production HEFT ranks on.
  std::vector<double> rank(problem.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    double best = 0.0;
    for (const graph::Adjacent& c : g.children(*it)) {
      best = std::max(best, problem.mean_comm_data(c.data) + rank[c.task]);
    }
    rank[*it] = problem.costs().mean(*it) + best;
  }

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
    platform::ProcId best_proc = platform::kInvalidProc;
    double best_est = 0.0;
    double best_eft = 0.0;
    for (const platform::ProcId p : problem.procs()) {
      const double ready = schedule.ready_time(problem, v, p);
      const double duration = problem.exec_time(v, p);
      const double est =
          scan_earliest_start(schedule, p, ready, duration, insertion_);
      const double eft = est + duration;
      if (best_proc == platform::kInvalidProc || eft < best_eft) {
        best_proc = p;
        best_est = est;
        best_eft = eft;
      }
    }
    schedule.place(v, best_proc, best_est, best_eft);
  }
  return schedule;
}

}  // namespace hdlts::core
