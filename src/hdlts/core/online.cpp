#include "hdlts/core/online.hpp"

#include <algorithm>
#include <limits>

#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/reduction_tree.hpp"

namespace hdlts::core {

namespace {

// PV arithmetic comes from core/pv.hpp (shared with the incremental and
// reference schedulers, so every HDLTS mode ranks by identical values).

struct ItqEntry {
  graph::TaskId task = graph::kInvalidTask;
  std::vector<double> ready;
  double frozen_pv = 0.0;
};

void flush_online_metrics(std::size_t lost) {
  static obs::Counter& runs =
      obs::MetricRegistry::global().counter("online.runs");
  static obs::Counter& lost_count =
      obs::MetricRegistry::global().counter("online.lost_executions");
  runs.add(1);
  lost_count.add(lost);
}

/// Final ordering, sink flush, and metric flush shared by both paths (this
/// is where the two implementations must already agree bit for bit).
void finish_result(OnlineResult& result, obs::DecisionTrace* sink) {
  std::sort(result.executions.begin(), result.executions.end(),
            [](const OnlineExec& a, const OnlineExec& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.task < b.task;
            });
  if (sink != nullptr) {
    std::size_t duplicates = 0;
    for (const OnlineExec& e : result.executions) {
      if (e.lost) continue;  // lost attempts are notes, not placements
      if (e.duplicate) ++duplicates;
      sink->on_placement({e.task, e.proc, e.start, e.finish, e.duplicate});
    }
    obs::ScheduleEndEvent end;
    end.makespan = result.makespan;
    end.steps = result.executions.size() - result.lost_executions;
    end.duplicates = duplicates;
    sink->on_end(end);
  }
  flush_online_metrics(result.lost_executions);
}

/// One HDLTS pass over the not-yet-done tasks, starting from the committed
/// state already placed in `schedule`. New executions start at or after
/// `phase_start`. Appends the new executions to `out`.
void run_phase(const sim::Problem& problem, sim::Schedule& schedule,
               std::vector<bool>& done, double phase_start,
               const HdltsOptions& options, bool cold,
               std::vector<OnlineExec>& out) {
  const auto& g = problem.graph();
  const auto& procs = problem.procs();
  const std::size_t np = procs.size();

  std::vector<std::size_t> pending(g.num_tasks(), 0);
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    for (const graph::Adjacent& p : g.parents(v)) {
      if (!done[p.task]) ++pending[v];
    }
  }

  auto eft_of = [&](const ItqEntry& e, std::size_t pi) {
    const platform::ProcId p = procs[pi];
    const double duration = problem.exec_time(e.task, p);
    const double ready = std::max(e.ready[pi], phase_start);
    const double est =
        schedule.earliest_start(p, ready, duration, options.insertion);
    return est + duration;
  };
  auto eft_row = [&](const ItqEntry& e) {
    std::vector<double> row(np);
    for (std::size_t pi = 0; pi < np; ++pi) row[pi] = eft_of(e, pi);
    return row;
  };

  std::vector<ItqEntry> itq;
  auto push_ready = [&](graph::TaskId v) {
    ItqEntry e;
    e.task = v;
    e.ready.resize(np);
    for (std::size_t pi = 0; pi < np; ++pi) {
      e.ready[pi] = schedule.ready_time(problem, v, procs[pi]);
    }
    if (!options.dynamic_priorities) {
      e.frozen_pv = penalty_value(options.pv, eft_row(e));
    }
    itq.push_back(std::move(e));
  };
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    if (!done[v] && pending[v] == 0) push_ready(v);
  }

  const auto entries = g.entry_tasks();
  const bool unique_entry = entries.size() == 1;

  while (!itq.empty()) {
    std::vector<double> pv(itq.size());
    for (std::size_t i = 0; i < itq.size(); ++i) {
      pv[i] = options.dynamic_priorities
                  ? penalty_value(options.pv, eft_row(itq[i]))
                  : itq[i].frozen_pv;
    }
    std::size_t pick = 0;
    for (std::size_t i = 1; i < itq.size(); ++i) {
      if (pv[i] > pv[pick] ||
          (pv[i] == pv[pick] && itq[i].task < itq[pick].task)) {
        pick = i;
      }
    }
    const ItqEntry chosen = std::move(itq[pick]);
    itq.erase(itq.begin() + static_cast<std::ptrdiff_t>(pick));
    const auto row = eft_row(chosen);
    std::size_t best = 0;
    for (std::size_t pi = 1; pi < np; ++pi) {
      if (row[pi] < row[best]) best = pi;
    }
    const platform::ProcId proc = procs[best];
    const double finish = row[best];
    const double start = finish - problem.exec_time(chosen.task, proc);
    schedule.place(chosen.task, proc, start, finish);
    out.push_back({chosen.task, proc, start, finish, false, false});

    // Entry duplication only applies on the cold start (all processors
    // empty); after a failure the machines are busy and Algorithm 1's
    // "duplicate from t = 0" premise no longer holds.
    if (cold && unique_entry && chosen.task == entries.front() &&
        options.duplication != DuplicationRule::kOff &&
        !g.children(chosen.task).empty()) {
      for (const platform::ProcId k : procs) {
        if (k == proc) continue;
        const double dup_finish = problem.exec_time(chosen.task, k);
        std::size_t benefits = 0;
        const auto children = g.children(chosen.task);
        for (const graph::Adjacent& c : children) {
          if (dup_finish < finish + problem.comm_time_data(c.data, proc, k)) {
            ++benefits;
          }
        }
        const bool do_dup =
            options.duplication == DuplicationRule::kAnyChildBenefits
                ? benefits > 0
                : benefits == children.size();
        if (do_dup) {
          schedule.place_duplicate(chosen.task, k, 0.0, dup_finish);
          out.push_back({chosen.task, k, 0.0, dup_finish, true, false});
        }
      }
    }

    for (const graph::Adjacent& c : g.children(chosen.task)) {
      bool ready = true;
      for (const graph::Adjacent& p : g.parents(c.task)) {
        if (!done[p.task] && !schedule.is_placed(p.task)) {
          ready = false;
          break;
        }
      }
      // pending-based check: only push when this was the last open parent.
      if (ready && !schedule.is_placed(c.task)) {
        bool already = false;
        for (const ItqEntry& e : itq) {
          if (e.task == c.task) {
            already = true;
            break;
          }
        }
        if (!already) push_ready(c.task);
      }
    }
  }
}

}  // namespace

OnlineResult run_online_legacy(const sim::Workload& workload,
                               std::span<const ProcFailure> failures,
                               const HdltsOptions& options,
                               obs::DecisionTrace* sink) {
  sim::Workload state = workload;
  state.validate();
  const std::size_t n = state.graph.num_tasks();

  if (sink != nullptr) {
    sink->on_begin({"online-hdlts", n, state.platform.num_procs()});
  }

  std::vector<ProcFailure> pending_failures(failures.begin(), failures.end());
  std::sort(pending_failures.begin(), pending_failures.end(),
            [](const ProcFailure& a, const ProcFailure& b) {
              return a.time < b.time;
            });

  OnlineResult result;
  std::vector<OnlineExec> committed;  // finished or unstoppable executions
  std::vector<bool> done(n, false);
  double phase_start = 0.0;
  bool cold = true;

  for (;;) {
    const bool all_done =
        std::all_of(done.begin(), done.end(), [](bool d) { return d; });
    // Completion requires the whole fault plan to be consumed: a failure
    // scheduled after every task acquired a committed copy can still kill a
    // copy that is running past the failure instant (see the sweep below).
    if (all_done && pending_failures.empty()) {
      result.completed = true;
      break;
    }
    if (!all_done && state.platform.num_alive() == 0) {
      result.completed = false;
      break;
    }

    std::vector<OnlineExec> fresh;
    if (!all_done) {
      // Rebuild the schedule state from committed executions.
      const sim::Problem problem(state);
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

      if (sink != nullptr) sink->on_note("online.phase_start", phase_start);
      run_phase(problem, schedule, done, phase_start, options, cold, fresh);
      cold = false;

      if (pending_failures.empty()) {
        for (OnlineExec& e : fresh) committed.push_back(e);
        for (const OnlineExec& e : committed) {
          if (!e.duplicate) done[e.task] = true;
        }
        result.completed = true;
        break;
      }
    }

    // Apply the next failure: keep what physically happened before it.
    const ProcFailure fail = pending_failures.front();
    pending_failures.erase(pending_failures.begin());
    if (!state.platform.is_alive(fail.proc)) continue;  // duplicate failure
    if (sink != nullptr) sink->on_note("online.failure", fail.time);

    auto kill = [&](OnlineExec e) {
      e.lost = true;
      e.finish = fail.time;
      result.executions.push_back(e);
      ++result.lost_executions;
      if (sink != nullptr) sink->on_note("online.lost_execution", fail.time);
    };

    for (OnlineExec& e : fresh) {
      const bool on_failed = e.proc == fail.proc;
      if (e.finish <= fail.time) {
        committed.push_back(e);  // finished before the failure
      } else if (e.start < fail.time) {
        if (on_failed) {
          kill(e);  // killed mid-execution; the task is re-queued later
        } else {
          committed.push_back(e);  // keeps running on a healthy machine
        }
      }
      // start >= fail.time: revoked silently; the task will be reconsidered.
    }
    // An execution committed during an *earlier* failure ("keeps running on
    // a healthy machine") is not unstoppable forever: if this failure kills
    // the machine it is still running on, it dies now. Without this sweep a
    // survivor could overlap its processor's failure time, which the online
    // validator (check::OnlineValidator) rightly rejects.
    for (std::size_t i = 0; i < committed.size();) {
      const OnlineExec& e = committed[i];
      if (e.proc == fail.proc && e.finish > fail.time) {
        if (e.start < fail.time) kill(e);
        committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    // A task is done when any committed copy of it completed (a surviving
    // duplicate covers a lost primary).
    done.assign(n, false);
    for (const OnlineExec& e : committed) done[e.task] = true;

    state.platform.set_alive(fail.proc, false);
    phase_start = std::max(phase_start, fail.time);
  }

  for (const OnlineExec& e : committed) {
    result.executions.push_back(e);
    result.makespan = std::max(result.makespan, e.finish);
  }
  finish_result(result, sink);
  return result;
}

// Compiled fast path. Same algorithm as run_online_legacy, but every phase
// runs against the workload's single frozen sim::CompiledProblem instead of
// a freshly compiled per-phase sim::Problem: processor death is an
// alive-column mask, the per-phase schedule is a recycled reset + replay of
// the committed executions, ITQ state lives in slot-recycled arena-backed
// SoA rows (the hdlts.cpp compiled-loop layout), EFT columns are refreshed
// incrementally from the Schedule change log, and processor/task selection
// go through simd::active()'s argmin_masked / argmax_key kernels.
//
// Bit-identity with the legacy path (tests/dst_test.cpp, online_test.cpp)
// rests on three facts:
//   * Schedule::ready_time / earliest_start read only placements, never
//     processor liveness, so the frozen view plus a mask reproduces the
//     per-phase rebuilt problem exactly;
//   * a cached EFT cell only goes stale when its processor's timeline
//     changes, which procs_changed_since reports exactly — so the cached
//     row always equals the legacy full recompute;
//   * PV reduction trees use the *compacted* alive columns as leaves
//     (base_for(#alive)), the same tree shape penalty_value builds over the
//     legacy compacted row — identity-padding dead columns instead would
//     change the pairwise summation order and the bits.
void OnlineHdlts::run_into(const sim::Problem& problem,
                           std::span<const ProcFailure> failures,
                           OnlineResult& out, obs::DecisionTrace* sink) {
  const sim::CompiledProblem& cp = problem.compiled();
  util::ScratchArena& arena = arena_;
  arena.reset();
  const simd::Dispatch& simd_k = simd::active();

  const std::size_t n = cp.num_tasks();
  const auto procs = cp.procs();  // initial alive list = the column space
  const std::size_t np = procs.size();
  const PvKind kind = options_.pv;
  const auto op_a = pv_op_a(kind);
  const auto op_b = pv_op_b(kind);
  const double id_a = util::tree_ops::identity(op_a);
  const double id_b = util::tree_ops::identity(op_b);
  // Trees are stored at the full-width stride; each phase uses only the
  // prefix for its compacted alive-leaf tree.
  const std::size_t tree_cap =
      2 * util::tree_ops::base_for(np > 0 ? np : 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (sink != nullptr) sink->on_begin({"online-hdlts", n, cp.num_procs()});

  // Column-space state.
  const auto alive = arena.alloc<unsigned char>(np);
  const auto leaf_of = arena.alloc<std::size_t>(np);     // column -> leaf
  const auto alive_cols = arena.alloc<std::size_t>(np);  // leaf -> column
  // Task-space state.
  const auto done = arena.alloc<unsigned char>(n);
  const auto has_primary = arena.alloc<unsigned char>(n);
  const auto pending = arena.alloc<std::size_t>(n);
  // Slot-indexed SoA rows + trees (see hdlts.cpp run_compiled_impl).
  const auto ready = arena.alloc<double>(n * np);
  const auto eft = arena.alloc<double>(n * np);
  const auto tree_a = arena.alloc<double>(n * tree_cap);
  const auto tree_b = arena.alloc<double>(n * tree_cap);
  const auto itq_task = arena.alloc<graph::TaskId>(n);
  const auto itq_slot = arena.alloc<std::uint32_t>(n);
  const auto itq_pv = arena.alloc<double>(n);
  const auto free_slots = arena.alloc<std::uint32_t>(n);
  const auto fresh_q = arena.alloc<std::size_t>(n);
  const auto dirty = arena.alloc<std::size_t>(np);
  const auto dirty_seen = arena.alloc<unsigned char>(np);
  const auto plan = arena.alloc<ProcFailure>(failures.size());

  std::fill(alive.begin(), alive.end(), static_cast<unsigned char>(1));
  std::fill(done.begin(), done.end(), static_cast<unsigned char>(0));
  std::fill(dirty_seen.begin(), dirty_seen.end(),
            static_cast<unsigned char>(0));
  std::copy(failures.begin(), failures.end(), plan.begin());
  std::sort(plan.begin(), plan.end(),
            [](const ProcFailure& a, const ProcFailure& b) {
              return a.time < b.time;
            });
  std::size_t plan_cursor = 0;
  std::size_t alive_count = np;
  std::size_t done_count = 0;

  out.executions.clear();
  out.makespan = 0.0;
  out.completed = false;
  out.lost_executions = 0;
  committed_.clear();
  sim::Schedule& schedule = schedule_;

  const auto entries = cp.entry_tasks();
  const bool unique_entry = entries.size() == 1;
  double phase_start = 0.0;
  bool cold = true;

  // One HDLTS pass over the not-yet-done tasks (legacy run_phase, on the
  // compiled substrate). Appends new executions to fresh_.
  auto run_phase_compiled = [&]() {
    // Compact this phase's alive columns into reduction-tree leaves.
    std::size_t n_alive = 0;
    for (std::size_t ci = 0; ci < np; ++ci) {
      if (alive[ci] != 0) {
        leaf_of[ci] = n_alive;
        alive_cols[n_alive] = ci;
        ++n_alive;
      } else {
        leaf_of[ci] = sim::CompiledProblem::kNoColumn;
      }
    }
    const std::size_t base = util::tree_ops::base_for(n_alive);
    const bool cold_phase = cold;

    std::size_t itq_size = 0;
    std::size_t free_size = 0;
    std::uint32_t next_slot = 0;
    std::size_t fresh_size = 0;

    auto eft_of = [&](graph::TaskId v, std::uint32_t slot, std::size_t ci) {
      const platform::ProcId p = procs[ci];
      const double duration = cp.exec_time(v, p);
      const double rdy = std::max(ready[slot * np + ci], phase_start);
      const double est =
          schedule.earliest_start(p, rdy, duration, options_.insertion);
      return est + duration;
    };
    auto enqueue_ready = [&](graph::TaskId v) {
      const std::uint32_t slot =
          free_size > 0 ? free_slots[--free_size] : next_slot++;
      itq_task[itq_size] = v;
      itq_slot[itq_size] = slot;
      fresh_q[fresh_size++] = itq_size;
      ++itq_size;
    };
    auto fill_entry = [&](std::size_t qi) {
      const graph::TaskId v = itq_task[qi];
      const std::uint32_t slot = itq_slot[qi];
      const auto r = ready.subspan(slot * np, np);
      const auto e = eft.subspan(slot * np, np);
      for (std::size_t ci = 0; ci < np; ++ci) {
        if (alive[ci] != 0) {
          r[ci] = schedule.ready_time(cp, v, procs[ci]);
          e[ci] = eft_of(v, slot, ci);
        } else {
          // Dead columns stay inert: +inf never wins the masked argmin and
          // the value is excluded from the compacted tree leaves anyway.
          r[ci] = 0.0;
          e[ci] = kInf;
        }
      }
      double* const ta = tree_a.data() + slot * tree_cap;
      double* const tb = tree_b.data() + slot * tree_cap;
      for (std::size_t li = 0; li < n_alive; ++li) {
        ta[base + li] = e[alive_cols[li]];
      }
      if (kind == PvKind::kRange) {
        std::copy(ta + base, ta + base + n_alive, tb + base);
      } else {
        simd_k.square(ta + base, tb + base, n_alive);
      }
      for (std::size_t li = n_alive; li < base; ++li) {
        ta[base + li] = id_a;
        tb[base + li] = id_b;
      }
      simd_k.combine_up(op_a, ta, base);
      simd_k.combine_up(op_b, tb, base);
      itq_pv[qi] = pv_from_roots(kind, n_alive, ta[1], tb[1]);
    };
    auto fill_fresh = [&]() {
      for (std::size_t i = 0; i < fresh_size; ++i) fill_entry(fresh_q[i]);
      fresh_size = 0;
    };

    auto refresh_dirty_columns = [&](std::uint64_t mark) {
      std::size_t dirty_size = 0;
      for (const platform::ProcId p : schedule.procs_changed_since(mark)) {
        const std::size_t ci = cp.column_of(p);
        HDLTS_EXPECTS(ci != sim::CompiledProblem::kNoColumn);
        if (dirty_seen[ci] == 0) {
          dirty_seen[ci] = 1;
          dirty[dirty_size++] = ci;
        }
      }
      for (std::size_t di = 0; di < dirty_size; ++di) dirty_seen[dirty[di]] = 0;
      for (std::size_t i = 0; i < itq_size; ++i) {
        const graph::TaskId v = itq_task[i];
        const std::uint32_t slot = itq_slot[i];
        const auto e = eft.subspan(slot * np, np);
        bool changed = false;
        for (std::size_t di = 0; di < dirty_size; ++di) {
          const std::size_t ci = dirty[di];
          const double f = eft_of(v, slot, ci);
          if (f != e[ci]) {
            e[ci] = f;
            // The row feeds processor selection in both modes; the PV trees
            // only matter under dynamic priorities (static mode keeps the
            // frozen itq_pv value, exactly like the legacy frozen_pv).
            if (options_.dynamic_priorities) {
              const std::size_t li = leaf_of[ci];
              util::tree_ops::update(
                  op_a, tree_a.subspan(slot * tree_cap, tree_cap), base, li, f);
              util::tree_ops::update(
                  op_b, tree_b.subspan(slot * tree_cap, tree_cap), base, li,
                  pv_leaf_b(kind, f));
              changed = true;
            }
          }
        }
        if (changed) {
          itq_pv[i] = pv_from_roots(kind, n_alive, tree_a[slot * tree_cap + 1],
                                    tree_b[slot * tree_cap + 1]);
        }
      }
    };

    // Parents not yet done gate each task; the initial ready set is pushed
    // in ascending task id, exactly like the legacy one-at-a-time scan.
    for (graph::TaskId v = 0; v < n; ++v) {
      pending[v] = 0;
      for (const graph::Adjacent& p : cp.parents(v)) {
        if (done[p.task] == 0) ++pending[v];
      }
    }
    for (graph::TaskId v = 0; v < n; ++v) {
      if (done[v] == 0 && pending[v] == 0) enqueue_ready(v);
    }
    fill_fresh();

    while (itq_size > 0) {
      // Highest PV wins; ties go to the lower task id (order-independent,
      // so the swap-remove compaction below cannot change picks).
      const std::size_t pick =
          simd_k.argmax_key(itq_pv.data(), itq_task.data(), itq_size);
      const graph::TaskId chosen = itq_task[pick];
      const std::uint32_t slot = itq_slot[pick];

      // Min-EFT processor among the *surviving* columns: the masked argmin
      // over the full-width row picks the same column the legacy scan finds
      // on its compacted row (relative order of alive columns is preserved).
      const auto row = eft.subspan(slot * np, np);
      const std::size_t best = simd_k.argmin_masked(row.data(), alive.data(),
                                                    np);
      const platform::ProcId proc = procs[best];
      const double finish = row[best];
      const double start = finish - cp.exec_time(chosen, proc);

      const std::size_t last = itq_size - 1;
      itq_task[pick] = itq_task[last];
      itq_slot[pick] = itq_slot[last];
      itq_pv[pick] = itq_pv[last];
      itq_size = last;
      free_slots[free_size++] = slot;

      const std::uint64_t mark = schedule.state_version();
      schedule.place(chosen, proc, start, finish);
      fresh_.push_back({chosen, proc, start, finish, false, false});

      // Entry duplication only applies on the cold start (all processors
      // empty); after a failure the machines are busy and Algorithm 1's
      // "duplicate from t = 0" premise no longer holds.
      if (cold_phase && unique_entry && chosen == entries[0] &&
          options_.duplication != DuplicationRule::kOff &&
          cp.out_degree(chosen) > 0) {
        const auto children = cp.children(chosen);
        for (std::size_t ci = 0; ci < np; ++ci) {
          if (alive[ci] == 0) continue;
          const platform::ProcId k = procs[ci];
          if (k == proc) continue;
          const double dup_finish = cp.exec_time(chosen, k);
          std::size_t benefits = 0;
          for (const graph::Adjacent& c : children) {
            if (dup_finish < finish + cp.comm_time_data(c.data, proc, k)) {
              ++benefits;
            }
          }
          const bool do_dup =
              options_.duplication == DuplicationRule::kAnyChildBenefits
                  ? benefits > 0
                  : benefits == children.size();
          if (do_dup) {
            schedule.place_duplicate(chosen, k, 0.0, dup_finish);
            fresh_.push_back({chosen, k, 0.0, dup_finish, true, false});
          }
        }
      }

      refresh_dirty_columns(mark);
      for (const graph::Adjacent& c : cp.children(chosen)) {
        if (--pending[c.task] == 0 && done[c.task] == 0) {
          enqueue_ready(c.task);
        }
      }
      fill_fresh();
    }
  };

  for (;;) {
    const bool all_done = done_count == n;
    // Completion requires the whole fault plan to be consumed: a failure
    // scheduled after every task acquired a committed copy can still kill a
    // copy that is running past the failure instant (see the sweep below).
    if (all_done && plan_cursor == plan.size()) {
      out.completed = true;
      break;
    }
    if (!all_done && alive_count == 0) {
      out.completed = false;
      break;
    }

    fresh_.clear();
    if (!all_done) {
      // Rebuild the schedule state from committed executions.
      schedule.reset(n, cp.num_procs());
      std::fill(has_primary.begin(), has_primary.end(),
                static_cast<unsigned char>(0));
      for (const OnlineExec& e : committed_) {
        if (has_primary[e.task] == 0) {
          schedule.place(e.task, e.proc, e.start, e.finish);
          has_primary[e.task] = 1;
        } else {
          schedule.place_duplicate(e.task, e.proc, e.start, e.finish);
        }
      }

      if (sink != nullptr) sink->on_note("online.phase_start", phase_start);
      run_phase_compiled();
      cold = false;

      if (plan_cursor == plan.size()) {
        for (const OnlineExec& e : fresh_) committed_.push_back(e);
        out.completed = true;
        break;
      }
    }

    // Apply the next failure: keep what physically happened before it.
    const ProcFailure fail = plan[plan_cursor++];
    if (fail.proc >= cp.num_procs()) {
      throw InvalidArgument("unknown processor id " +
                            std::to_string(fail.proc));
    }
    const std::size_t fcol = cp.column_of(fail.proc);
    if (fcol == sim::CompiledProblem::kNoColumn || alive[fcol] == 0) {
      continue;  // duplicate failure (or a processor dead from the start)
    }
    if (sink != nullptr) sink->on_note("online.failure", fail.time);

    auto kill = [&](OnlineExec e) {
      e.lost = true;
      e.finish = fail.time;
      out.executions.push_back(e);
      ++out.lost_executions;
      if (sink != nullptr) sink->on_note("online.lost_execution", fail.time);
    };

    for (OnlineExec& e : fresh_) {
      const bool on_failed = e.proc == fail.proc;
      if (e.finish <= fail.time) {
        committed_.push_back(e);  // finished before the failure
      } else if (e.start < fail.time) {
        if (on_failed) {
          kill(e);  // killed mid-execution; the task is re-queued later
        } else {
          committed_.push_back(e);  // keeps running on a healthy machine
        }
      }
      // start >= fail.time: revoked silently; the task will be reconsidered.
    }
    // An execution committed during an *earlier* failure is not unstoppable
    // forever: if this failure kills the machine it is still running on, it
    // dies now (same sweep as the legacy path).
    for (std::size_t i = 0; i < committed_.size();) {
      const OnlineExec& e = committed_[i];
      if (e.proc == fail.proc && e.finish > fail.time) {
        if (e.start < fail.time) kill(e);
        committed_.erase(committed_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    // A task is done when any committed copy of it completed (a surviving
    // duplicate covers a lost primary).
    std::fill(done.begin(), done.end(), static_cast<unsigned char>(0));
    done_count = 0;
    for (const OnlineExec& e : committed_) {
      if (done[e.task] == 0) {
        done[e.task] = 1;
        ++done_count;
      }
    }

    alive[fcol] = 0;
    --alive_count;
    phase_start = std::max(phase_start, fail.time);
  }

  for (const OnlineExec& e : committed_) {
    out.executions.push_back(e);
    out.makespan = std::max(out.makespan, e.finish);
  }
  finish_result(out, sink);
}

OnlineResult OnlineHdlts::run(const sim::Workload& workload,
                              std::span<const ProcFailure> failures,
                              obs::DecisionTrace* sink) {
  const sim::Problem problem(workload);  // validates + freezes once
  OnlineResult out;
  run_into(problem, failures, out, sink);
  return out;
}

OnlineResult run_online(const sim::Workload& workload,
                        std::span<const ProcFailure> failures,
                        const HdltsOptions& options,
                        obs::DecisionTrace* sink) {
  OnlineHdlts online(options);
  return online.run(workload, failures, sink);
}

}  // namespace hdlts::core
