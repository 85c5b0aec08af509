#include "hdlts/sim/schedule.hpp"

#include <algorithm>
#include <cmath>

namespace hdlts::sim {

namespace {
constexpr double kEps = 1e-7;
}

Schedule::Schedule(std::size_t num_tasks, std::size_t num_procs)
    : primary_(num_tasks), dup_(num_tasks), timeline_(num_procs),
      avail_(num_procs, 0.0) {
  if (num_procs == 0) throw InvalidArgument("schedule needs >= 1 processor");
}

void Schedule::reset(std::size_t num_tasks, std::size_t num_procs) {
  if (num_procs == 0) throw InvalidArgument("schedule needs >= 1 processor");
  // clear() + resize() keeps each inner vector's capacity, which is what
  // makes a recycled Schedule allocation-free once warmed up.
  std::fill(primary_.begin(), primary_.end(), Placement{});
  primary_.resize(num_tasks);
  for (auto& d : dup_) d.clear();
  dup_.resize(num_tasks);
  for (auto& line : timeline_) line.clear();
  timeline_.resize(num_procs);
  avail_.assign(num_procs, 0.0);
  num_placed_ = 0;
  makespan_ = 0.0;
  change_log_.clear();
}

void Schedule::place(graph::TaskId task, platform::ProcId proc, double start,
                     double finish) {
  if (task >= num_tasks()) {
    throw InvalidArgument("unknown task id " + std::to_string(task));
  }
  if (is_placed(task)) {
    throw InvalidArgument("task " + std::to_string(task) + " already placed");
  }
  const Placement pl{task, proc, start, finish, /*duplicate=*/false};
  // Throws on overlap before mutating primary_.
  insert_into_timeline(pl, /*counts_for_makespan=*/true);
  primary_[task] = pl;
  ++num_placed_;
}

void Schedule::place_duplicate(graph::TaskId task, platform::ProcId proc,
                               double start, double finish) {
  if (task >= num_tasks()) {
    throw InvalidArgument("unknown task id " + std::to_string(task));
  }
  const Placement pl{task, proc, start, finish, /*duplicate=*/true};
  insert_into_timeline(pl, /*counts_for_makespan=*/true);
  dup_[task].push_back(pl);
}

void Schedule::place_busy(platform::ProcId proc, double start, double finish) {
  // A pre-occupied interval blocks the lane but is not an execution: the
  // makespan stays the completion time of the workload itself, so an idle
  // tail on a background-loaded lane never inflates it.
  const Placement pl{graph::kInvalidTask, proc, start, finish,
                     /*duplicate=*/false};
  insert_into_timeline(pl, /*counts_for_makespan=*/false);
}

void Schedule::insert_into_timeline(const Placement& pl,
                                    bool counts_for_makespan) {
  if (pl.proc >= num_procs()) {
    throw InvalidArgument("unknown processor id " + std::to_string(pl.proc));
  }
  if (pl.start < 0.0 || pl.finish < pl.start) {
    throw InvalidArgument("placement interval is malformed");
  }
  auto& line = timeline_[pl.proc];
  const auto pos = std::lower_bound(
      line.begin(), line.end(), pl,
      [](const Placement& a, const Placement& b) { return a.start < b.start; });
  // Zero-duration placements (pseudo entry/exit tasks) occupy no time and
  // conflict with nothing; a real placement must not overlap its nearest
  // positive-length neighbours (zero-length records in between are skipped).
  if (pl.finish - pl.start > kEps) {
    for (auto it = pos; it != line.end(); ++it) {
      if (it->finish - it->start <= kEps) continue;
      if (pl.finish > it->start + kEps) {
        throw InvalidArgument("placement overlaps successor on processor " +
                              std::to_string(pl.proc));
      }
      break;
    }
    for (auto it = pos; it != line.begin();) {
      --it;
      if (it->finish - it->start <= kEps) continue;
      if (it->finish > pl.start + kEps) {
        throw InvalidArgument("placement overlaps predecessor on processor " +
                              std::to_string(pl.proc));
      }
      break;
    }
  }
  line.insert(pos, pl);
  // All validation passed: fold the record into the incremental caches.
  avail_[pl.proc] = std::max(avail_[pl.proc], pl.finish);
  if (counts_for_makespan) makespan_ = std::max(makespan_, pl.finish);
  change_log_.push_back(pl.proc);
}

bool Schedule::is_placed(graph::TaskId task) const {
  return task < num_tasks() && primary_[task].task != graph::kInvalidTask;
}

const Placement& Schedule::placement(graph::TaskId task) const {
  if (!is_placed(task)) {
    throw InvalidArgument("task " + std::to_string(task) + " is not placed");
  }
  return primary_[task];
}

std::span<const Placement> Schedule::duplicates(graph::TaskId task) const {
  if (task >= num_tasks()) {
    throw InvalidArgument("unknown task id " + std::to_string(task));
  }
  return dup_[task];
}

double Schedule::finish_time(graph::TaskId task) const {
  return placement(task).finish;
}

namespace {

/// Shared ready-time loop: `parents` yields {task, data} in the graph's
/// adjacency order, `comm` must be the view's comm_time_data. One body for
/// the Problem and CompiledProblem overloads keeps the FP op sequence
/// identical.
template <typename ProblemLike>
double ready_time_impl(const Schedule& schedule,
                       const std::vector<std::vector<Placement>>& dup,
                       const ProblemLike& problem, graph::TaskId v,
                       platform::ProcId proc) {
  double ready = 0.0;
  for (const graph::Adjacent& parent : problem.parents(v)) {
    const Placement& pl = schedule.placement(parent.task);
    double arrival =
        pl.finish + problem.comm_time_data(parent.data, pl.proc, proc);
    for (const Placement& d : dup[parent.task]) {
      arrival = std::min(
          arrival,
          d.finish + problem.comm_time_data(parent.data, d.proc, proc));
    }
    ready = std::max(ready, arrival);
  }
  return ready;
}

/// Adapter giving Problem the parents()/comm_time_data() shape.
struct ProblemParents {
  const Problem& p;
  std::span<const graph::Adjacent> parents(graph::TaskId v) const {
    return p.graph().parents(v);
  }
  double comm_time_data(double data, platform::ProcId pu,
                        platform::ProcId pv) const {
    return p.comm_time_data(data, pu, pv);
  }
};

}  // namespace

double Schedule::ready_time(const Problem& problem, graph::TaskId v,
                            platform::ProcId proc) const {
  return ready_time_impl(*this, dup_, ProblemParents{problem}, v, proc);
}

double Schedule::ready_time(const CompiledProblem& problem, graph::TaskId v,
                            platform::ProcId proc) const {
  return ready_time_impl(*this, dup_, problem, v, proc);
}

std::span<const Placement> Schedule::timeline(platform::ProcId proc) const {
  if (proc >= num_procs()) {
    throw InvalidArgument("unknown processor id " + std::to_string(proc));
  }
  return timeline_[proc];
}

double Schedule::proc_available(platform::ProcId proc) const {
  // Zero-length records may sit anywhere in the timeline, so the last entry
  // by start is not necessarily the latest finish; avail_ tracks the true
  // max finish incrementally.
  if (proc >= num_procs()) {
    throw InvalidArgument("unknown processor id " + std::to_string(proc));
  }
  return avail_[proc];
}

std::span<const platform::ProcId> Schedule::procs_changed_since(
    std::uint64_t since) const {
  if (since > change_log_.size()) {
    throw InvalidArgument("state version " + std::to_string(since) +
                          " is from the future");
  }
  return {change_log_.data() + since, change_log_.size() - since};
}

double Schedule::earliest_start(platform::ProcId proc, double ready,
                                double duration, bool insertion) const {
  const auto line = timeline(proc);
  if (!insertion) return std::max(ready, avail_[proc]);
  // A zero-duration block (pseudo task) occupies no time and conflicts with
  // nothing, so it can run the moment its data is ready.
  if (duration <= kEps) return ready;
  // Everything on the timeline finishes by avail_; a block whose data is
  // ready no earlier than that can start at `ready` without scanning gaps.
  if (ready >= avail_[proc]) return ready;
  // Scan idle gaps in chronological order; the first gap that can hold
  // [start, start + duration) with start >= ready wins (HEFT insertion).
  // Zero-duration records occupy no time and never close a gap.
  double cursor = ready;
  for (const Placement& pl : line) {
    if (pl.finish - pl.start <= kEps) continue;
    if (pl.start >= cursor + duration - kEps) break;  // gap before pl fits
    cursor = std::max(cursor, pl.finish);
  }
  return cursor;
}

std::vector<std::string> Schedule::validate(const Problem& problem) const {
  std::vector<std::string> violations;
  auto complain = [&violations](std::string msg) {
    violations.push_back(std::move(msg));
  };

  if (num_tasks() != problem.num_tasks() ||
      num_procs() != problem.num_procs()) {
    complain("schedule dimensions do not match the problem");
    return violations;
  }

  const auto& alive = problem.procs();
  auto proc_is_alive = [&alive](platform::ProcId p) {
    return std::binary_search(alive.begin(), alive.end(), p);
  };

  auto check_placement = [&](const Placement& pl, const char* kind) {
    if (!proc_is_alive(pl.proc)) {
      complain(std::string(kind) + " of task " + std::to_string(pl.task) +
               " uses dead processor " + std::to_string(pl.proc));
    }
    const double expected = problem.exec_time(pl.task, pl.proc);
    if (std::abs((pl.finish - pl.start) - expected) > kEps) {
      complain(std::string(kind) + " of task " + std::to_string(pl.task) +
               " has duration " + std::to_string(pl.finish - pl.start) +
               " but W(v,p) = " + std::to_string(expected));
    }
    const double ready = ready_time(problem, pl.task, pl.proc);
    if (pl.start + kEps < ready) {
      complain(std::string(kind) + " of task " + std::to_string(pl.task) +
               " starts at " + std::to_string(pl.start) +
               " before its data is ready at " + std::to_string(ready));
    }
  };

  for (graph::TaskId v = 0; v < num_tasks(); ++v) {
    if (!is_placed(v)) {
      complain("task " + std::to_string(v) + " is not placed");
      continue;
    }
    check_placement(primary_[v], "placement");
    for (const Placement& d : dup_[v]) check_placement(d, "duplicate");
  }

  auto block_label = [](const Placement& pl) {
    return pl.task == graph::kInvalidTask ? std::string("busy interval")
                                          : std::to_string(pl.task);
  };
  for (platform::ProcId p = 0; p < num_procs(); ++p) {
    const auto line = timeline(p);
    // Compare consecutive positive-length blocks; zero-duration records
    // (pseudo tasks) occupy no time and cannot overlap anything. Busy
    // intervals participate like any other block.
    const Placement* prev = nullptr;
    for (const Placement& pl : line) {
      if (pl.finish - pl.start <= kEps) continue;
      if (prev != nullptr && prev->finish > pl.start + kEps) {
        complain("overlap on processor " + std::to_string(p) + " between " +
                 block_label(*prev) + " and " + block_label(pl));
      }
      prev = &pl;
    }
  }
  return violations;
}

}  // namespace hdlts::sim
