#include "hdlts/core/online.hpp"

#include <algorithm>

#include "hdlts/core/itq_engine.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/trace.hpp"

namespace hdlts::core {

namespace {

void flush_online_metrics(std::size_t lost) {
  static obs::Counter& runs =
      obs::MetricRegistry::global().counter("online.runs");
  static obs::Counter& lost_count =
      obs::MetricRegistry::global().counter("online.lost_executions");
  runs.add(1);
  lost_count.add(lost);
}

/// Final ordering, sink flush, and metric flush of a run.
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

}  // namespace

// Compiled fast path. Same algorithm as core::reference_online, but every phase
// runs against the workload's single frozen sim::CompiledProblem instead of
// a freshly compiled per-phase sim::Problem: the per-phase schedule is a
// recycled reset + replay of the committed executions, and each phase
// runs core::ItqEngine with the alive columns live and every EST floored
// at the phase start.
//
// Bit-identity with the reference (tests/dst_test.cpp, online_test.cpp)
// rests on three facts:
//   * Schedule::ready_time / earliest_start read only placements, never
//     processor liveness, so the frozen view plus a live-column mask
//     reproduces the per-phase rebuilt problem exactly;
//   * a cached EFT cell only goes stale when its processor's timeline
//     changes, which procs_changed_since reports exactly — so the cached
//     row always equals the reference's full recompute;
//   * the engine's PV trees pack the alive columns as leaves
//     (base_for(#alive)), the same tree shape penalty_value builds over the
//     reference's compacted row — identity-padding dead columns instead would
//     change the pairwise summation order and the bits.
void OnlineHdlts::run_into(const sim::Problem& problem,
                           std::span<const ProcFailure> failures,
                           OnlineResult& out, obs::DecisionTrace* sink) {
  const sim::CompiledProblem& cp = problem.compiled();
  util::ScratchArena& arena = arena_;
  arena.reset();

  const std::size_t n = cp.num_tasks();
  const auto procs = cp.procs();  // initial alive list = the column space
  const std::size_t np = procs.size();

  if (sink != nullptr) sink->on_begin({"online-hdlts", n, cp.num_procs()});

  sim::Schedule& schedule = schedule_;
  ItqEngine itq(arena, cp, schedule, options_.pv,
                options_.dynamic_priorities ? ItqRank::kDynamicPv
                                            : ItqRank::kFrozenPv,
                options_.insertion);
  const auto alive = arena.alloc<unsigned char>(np);  // by column
  const auto done = arena.alloc<unsigned char>(n);
  const auto has_primary = arena.alloc<unsigned char>(n);
  const auto pending = arena.alloc<std::size_t>(n);
  const auto plan = arena.alloc<ProcFailure>(failures.size());

  std::fill(alive.begin(), alive.end(), static_cast<unsigned char>(1));
  std::fill(done.begin(), done.end(), static_cast<unsigned char>(0));
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

  const auto entries = cp.entry_tasks();
  const bool unique_entry = entries.size() == 1;
  double phase_start = 0.0;
  bool cold = true;

  // One HDLTS pass over the not-yet-done tasks. Appends new executions to
  // fresh_.
  auto run_phase = [&]() {
    itq.restart(alive);
    // Parents not yet done gate each task; the initial ready set is pushed
    // in ascending task id, exactly like the reference's one-at-a-time scan.
    for (graph::TaskId v = 0; v < n; ++v) {
      pending[v] = 0;
      for (const graph::Adjacent& p : cp.parents(v)) {
        if (done[p.task] == 0) ++pending[v];
      }
    }
    for (graph::TaskId v = 0; v < n; ++v) {
      if (done[v] == 0 && pending[v] == 0) itq.push(v, phase_start);
    }

    while (!itq.empty()) {
      const std::size_t pick = itq.pick();
      const graph::TaskId chosen = itq.task(pick);
      const auto row = itq.row(pick);
      const std::size_t best = itq.min_eft_column(row);
      const platform::ProcId proc = procs[best];
      const double finish = row[best];
      const double start = finish - cp.exec_time(chosen, proc);
      itq.remove(pick);

      const std::uint64_t mark = schedule.state_version();
      schedule.place(chosen, proc, start, finish);
      fresh_.push_back({chosen, proc, start, finish, false, false});

      // Entry duplication only applies on the cold start (all processors
      // empty); after a failure the machines are busy and Algorithm 1's
      // "duplicate from t = 0" premise no longer holds.
      if (cold && unique_entry && chosen == entries[0] &&
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

      itq.refresh(mark);
      for (const graph::Adjacent& c : cp.children(chosen)) {
        if (--pending[c.task] == 0 && done[c.task] == 0) {
          itq.push(c.task, phase_start);
        }
      }
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
      run_phase();
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
    // dies now (same sweep as the reference).
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
