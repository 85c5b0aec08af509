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

}  // namespace

ReferenceItq::ReferenceItq(const sim::Problem& problem,
                           const sim::Schedule& schedule, PvKind pv,
                           ItqRank rank, bool insertion)
    : problem_(problem),
      schedule_(schedule),
      pv_(pv),
      rank_(rank),
      insertion_(insertion) {}

std::vector<double> ReferenceItq::eft_row(const Entry& e) const {
  const auto& procs = problem_.procs();
  std::vector<double> row(procs.size());
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const double duration = problem_.exec_time(e.task, procs[pi]);
    row[pi] = scan_earliest_start(schedule_, procs[pi], e.ready[pi], duration,
                                  insertion_) +
              duration;
  }
  return row;
}

void ReferenceItq::push(graph::TaskId v, double floor) {
  Entry e{v, {}, 0.0};
  for (const platform::ProcId p : problem_.procs()) {
    e.ready.push_back(std::max(schedule_.ready_time(problem_, v, p), floor));
  }
  if (rank_ == ItqRank::kFrozenPv) e.key = penalty_value(pv_, eft_row(e));
  if (rank_ == ItqRank::kArrivalOrder) e.key = -static_cast<double>(pushes_);
  ++pushes_;
  entries_.push_back(std::move(e));
}

graph::TaskId ReferenceItq::pop(std::vector<double>& row) {
  if (rank_ == ItqRank::kDynamicPv) {
    for (Entry& e : entries_) e.key = penalty_value(pv_, eft_row(e));
  }
  std::size_t pick = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.key > entries_[pick].key ||
        (e.key == entries_[pick].key && e.task < entries_[pick].task)) {
      pick = i;
    }
  }
  const Entry chosen = std::move(entries_[pick]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pick));
  row = eft_row(chosen);
  return chosen.task;
}

sim::Schedule ReferenceHdlts::schedule(const sim::Problem& problem) const {
  const auto& g = problem.graph();
  const auto& procs = problem.procs();
  const std::size_t np = procs.size();
  sim::Schedule schedule(problem.num_tasks(), problem.num_procs());

  const auto entries = g.entry_tasks();
  const bool unique_entry = entries.size() == 1;

  ReferenceItq itq(problem, schedule, options_.pv,
                   options_.dynamic_priorities ? ItqRank::kDynamicPv
                                               : ItqRank::kFrozenPv,
                   options_.insertion);
  std::vector<std::size_t> pending(g.num_tasks());
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    pending[v] = g.in_degree(v);
    if (pending[v] == 0) itq.push(v, 0.0);
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

  std::vector<double> row;
  while (!itq.empty()) {
    const graph::TaskId chosen = itq.pop(row);
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
        const double dyn = problem.exec_time(chosen, p) *
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
    const double start = finish - problem.exec_time(chosen, proc);

    schedule.place(chosen, proc, start, finish);
    if (qualifies_for_duplication(chosen)) duplicate_task(chosen);
    for (const graph::Adjacent& c : g.children(chosen)) {
      if (--pending[c.task] == 0) itq.push(c.task, 0.0);
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

OnlineResult reference_online(const sim::Workload& workload,
                              std::span<const ProcFailure> failures,
                              const HdltsOptions& options) {
  sim::Workload state = workload;
  state.validate();
  const std::size_t n = state.graph.num_tasks();
  const auto& g = state.graph;
  const auto entries = g.entry_tasks();
  const bool unique_entry = entries.size() == 1;

  std::vector<ProcFailure> plan(failures.begin(), failures.end());
  std::sort(plan.begin(), plan.end(),
            [](const ProcFailure& a, const ProcFailure& b) {
              return a.time < b.time;
            });

  OnlineResult result;
  std::vector<OnlineExec> committed;  // finished or unstoppable executions
  std::vector<bool> done(n, false);
  double phase_start = 0.0;
  bool cold = true;

  for (std::size_t next = 0;;) {
    const bool all_done =
        std::all_of(done.begin(), done.end(), [](bool d) { return d; });
    // Completion needs the whole plan applied: a later failure can still
    // kill a committed copy running past its instant (the sweep below).
    if (all_done && next == plan.size()) {
      result.completed = true;
      break;
    }
    if (!all_done && state.platform.num_alive() == 0) break;

    std::vector<OnlineExec> fresh;
    if (!all_done) {
      const sim::Problem problem(state);  // the survivors only
      sim::Schedule schedule(n, state.platform.num_procs());
      std::vector<bool> has_primary(n, false);
      for (const OnlineExec& e : committed) {
        if (!has_primary[e.task]) {
          schedule.place(e.task, e.proc, e.start, e.finish);
          has_primary[e.task] = true;
        } else {
          schedule.place_duplicate(e.task, e.proc, e.start, e.finish);
        }
      }

      ReferenceItq itq(problem, schedule, options.pv,
                       options.dynamic_priorities ? ItqRank::kDynamicPv
                                                  : ItqRank::kFrozenPv,
                       options.insertion);
      // A task joins the ITQ once every parent is done or placed.
      auto release = [&](graph::TaskId v) {
        if (done[v] || schedule.is_placed(v)) return;
        for (const graph::Adjacent& p : g.parents(v)) {
          if (!done[p.task] && !schedule.is_placed(p.task)) return;
        }
        itq.push(v, phase_start);
      };
      for (graph::TaskId v = 0; v < n; ++v) release(v);

      std::vector<double> row;
      while (!itq.empty()) {
        const graph::TaskId chosen = itq.pop(row);
        const std::size_t best = static_cast<std::size_t>(
            std::min_element(row.begin(), row.end()) - row.begin());
        const platform::ProcId proc = problem.procs()[best];
        const double finish = row[best];
        const double start = finish - problem.exec_time(chosen, proc);
        schedule.place(chosen, proc, start, finish);
        fresh.push_back({chosen, proc, start, finish, false, false});

        // Cold-start entry duplication, online's own rule rather than
        // Algorithm 1's duplicate_task: a copy from t = 0 on each other live
        // processor where the duplication rule sees children benefit.
        const auto children = g.children(chosen);
        if (cold && unique_entry && chosen == entries.front() &&
            options.duplication != DuplicationRule::kOff &&
            !children.empty()) {
          for (const platform::ProcId k : problem.procs()) {
            if (k == proc) continue;
            const double dup_finish = problem.exec_time(chosen, k);
            std::size_t benefits = 0;
            for (const graph::Adjacent& c : children) {
              if (dup_finish <
                  finish + problem.comm_time_data(c.data, proc, k)) {
                ++benefits;
              }
            }
            if (options.duplication == DuplicationRule::kAnyChildBenefits
                    ? benefits > 0
                    : benefits == children.size()) {
              schedule.place_duplicate(chosen, k, 0.0, dup_finish);
              fresh.push_back({chosen, k, 0.0, dup_finish, true, false});
            }
          }
        }
        for (const graph::Adjacent& c : children) release(c.task);
      }
      cold = false;

      if (next == plan.size()) {
        committed.insert(committed.end(), fresh.begin(), fresh.end());
        result.completed = true;
        break;
      }
    }

    // Apply the next failure: keep what physically happened before it.
    const ProcFailure fail = plan[next++];
    if (!state.platform.is_alive(fail.proc)) continue;  // duplicate failure
    auto kill = [&](OnlineExec e) {
      e.lost = true;
      e.finish = fail.time;
      result.executions.push_back(e);
      ++result.lost_executions;
    };
    for (const OnlineExec& e : fresh) {
      if (e.finish <= fail.time) {
        committed.push_back(e);  // finished before the failure
      } else if (e.start < fail.time) {
        if (e.proc == fail.proc) {
          kill(e);  // its task is re-queued by the next phase
        } else {
          committed.push_back(e);  // keeps running on a healthy machine
        }
      }
      // start >= fail.time: revoked; the next phase reconsiders the task.
    }
    // A copy committed at an earlier failure dies if this one kills the
    // machine it is still running on.
    for (std::size_t i = 0; i < committed.size();) {
      const OnlineExec& e = committed[i];
      if (e.proc == fail.proc && e.finish > fail.time) {
        if (e.start < fail.time) kill(e);
        committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    // Done: any committed copy completed (a duplicate covers a lost primary).
    done.assign(n, false);
    for (const OnlineExec& e : committed) done[e.task] = true;

    state.platform.set_alive(fail.proc, false);
    phase_start = std::max(phase_start, fail.time);
  }

  for (const OnlineExec& e : committed) {
    result.executions.push_back(e);
    result.makespan = std::max(result.makespan, e.finish);
  }
  std::sort(result.executions.begin(), result.executions.end(),
            [](const OnlineExec& a, const OnlineExec& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.task < b.task;
            });
  return result;
}

}  // namespace hdlts::core
