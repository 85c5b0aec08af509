#include "hdlts/core/stream.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hdlts/core/itq_engine.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/trace.hpp"

namespace hdlts::core {

namespace {

void flush_stream_metrics(std::size_t workflow_count) {
  static obs::Counter& runs =
      obs::MetricRegistry::global().counter("stream.runs");
  static obs::Counter& workflows =
      obs::MetricRegistry::global().counter("stream.workflows");
  runs.add(1);
  workflows.add(workflow_count);
}

}  // namespace

/// The frozen stream: the merged workload plus the per-task arrival floors
/// and id-space bookkeeping StreamHdlts and reference_stream share.
struct detail::FrozenStream {
  sim::Workload workload;
  std::vector<double> floor;        // per combined task: arrival of its owner
  std::vector<std::size_t> owner;   // per combined task: workflow index
  std::vector<std::size_t> offset;  // workflow -> first combined id
  std::vector<std::size_t> phase_order;  // workflow indices in arrival order
  std::vector<double> arrival;           // per workflow
  std::vector<double> deadline;          // per workflow (absolute; +inf none)
  std::vector<unsigned char> hard;       // per workflow: hard deadline?
  std::vector<BusyInterval> busy;        // pre-occupied processor intervals
};

namespace {

/// Validates the arrivals and merges them into one workload in the combined
/// id space (workflow w's task t becomes offset[w] + t). The graph is
/// reserved to the exact task/edge totals (and the CostTable constructor
/// pre-sizes the full matrix), so the build does not realloc-churn through
/// add_task/add_edge.
detail::FrozenStream build_combined(std::span<const StreamArrival> arrivals,
                                    std::span<const BusyInterval> busy) {
  if (arrivals.empty()) {
    throw InvalidArgument("workflow stream must not be empty");
  }
  const std::size_t num_procs = arrivals.front().workload.platform.num_procs();
  for (const StreamArrival& a : arrivals) {
    a.workload.validate();
    if (a.workload.platform.num_procs() != num_procs) {
      throw InvalidArgument(
          "all stream workflows must target the same processor count");
    }
    // Negated >= so that NaN fails each check.
    if (!std::isfinite(a.arrival) || !(a.arrival >= 0.0)) {
      throw InvalidArgument("arrival times must be finite and non-negative");
    }
    if (!(a.deadline >= a.arrival)) {
      throw InvalidArgument("deadline precedes the workflow's arrival");
    }
  }
  for (const BusyInterval& b : busy) {
    if (b.proc >= num_procs) {
      throw InvalidArgument("busy interval uses unknown processor " +
                            std::to_string(b.proc));
    }
    if (!std::isfinite(b.start) || !(b.start >= 0.0) ||
        !(b.finish >= b.start)) {
      throw InvalidArgument("busy interval is malformed");
    }
  }

  std::vector<std::size_t> offset(arrivals.size() + 1, 0);
  std::size_t total_edges = 0;
  for (std::size_t w = 0; w < arrivals.size(); ++w) {
    offset[w + 1] = offset[w] + arrivals[w].workload.graph.num_tasks();
    total_edges += arrivals[w].workload.graph.num_edges();
  }
  const std::size_t total = offset.back();

  detail::FrozenStream out{
      sim::Workload{graph::TaskGraph{}, sim::CostTable(total, num_procs),
                    arrivals.front().workload.platform},
      std::vector<double>(total, 0.0),
      std::vector<std::size_t>(total, 0),
      std::move(offset),
      {},
      {},
      {},
      {},
      {}};
  out.workload.graph.reserve(total, total_edges);
  for (std::size_t w = 0; w < arrivals.size(); ++w) {
    const auto& g = arrivals[w].workload.graph;
    for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
      const graph::TaskId id =
          out.workload.graph.add_task(g.name(v) + "@" + std::to_string(w),
                                      g.work(v));
      HDLTS_ENSURES(id == out.offset[w] + v);
      out.floor[id] = arrivals[w].arrival;
      out.owner[id] = w;
      for (platform::ProcId p = 0; p < num_procs; ++p) {
        out.workload.costs.set(id, p, arrivals[w].workload.costs(v, p));
      }
    }
  }
  for (std::size_t w = 0; w < arrivals.size(); ++w) {
    const auto& g = arrivals[w].workload.graph;
    for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
      for (const graph::Adjacent& c : g.children(v)) {
        out.workload.graph.add_edge(
            static_cast<graph::TaskId>(out.offset[w] + v),
            static_cast<graph::TaskId>(out.offset[w] + c.task), c.data);
      }
    }
  }

  // Arrival phases in time order, equal times in list order.
  out.phase_order.resize(arrivals.size());
  std::iota(out.phase_order.begin(), out.phase_order.end(), 0);
  std::sort(out.phase_order.begin(), out.phase_order.end(),
            [&](std::size_t a, std::size_t b) {
              if (arrivals[a].arrival != arrivals[b].arrival) {
                return arrivals[a].arrival < arrivals[b].arrival;
              }
              return a < b;
            });
  out.arrival.resize(arrivals.size());
  out.deadline.resize(arrivals.size());
  out.hard.resize(arrivals.size());
  for (std::size_t w = 0; w < arrivals.size(); ++w) {
    out.arrival[w] = arrivals[w].arrival;
    out.deadline[w] = arrivals[w].deadline;
    out.hard[w] =
        arrivals[w].deadline_kind == DeadlineKind::kHard ? 1 : 0;
  }
  out.busy.assign(busy.begin(), busy.end());
  return out;
}

/// Deadline bookkeeping: compares each workflow's finish against its
/// (absolute) deadline with strict >.
void account_deadlines(const std::vector<double>& deadline,
                       const std::vector<unsigned char>& hard,
                       StreamResult& out) {
  out.deadline_missed.assign(deadline.size(), 0);
  out.deadline_misses = 0;
  out.hard_deadline_misses = 0;
  for (std::size_t w = 0; w < deadline.size(); ++w) {
    if (out.finish[w] > deadline[w]) {
      out.deadline_missed[w] = 1;
      ++out.deadline_misses;
      if (hard[w] != 0) ++out.hard_deadline_misses;
    }
  }
}

/// Pins the pre-occupied intervals onto a freshly reset schedule.
void apply_busy(std::span<const BusyInterval> busy, sim::Schedule& schedule) {
  for (const BusyInterval& b : busy) {
    schedule.place_busy(b.proc, b.start, b.finish);
  }
}

/// Maps a fully placed combined schedule back to per-workflow executions,
/// finish and flow times and deadline flags (recycling `out`'s storage).
void assemble_result(const detail::FrozenStream& frozen,
                     const sim::Schedule& schedule, StreamResult& out) {
  const std::size_t total = schedule.num_tasks();
  const std::size_t num_workflows = frozen.arrival.size();
  HDLTS_ENSURES(schedule.num_placed() == total);
  out.executions.clear();
  out.makespan = 0.0;
  out.finish.assign(num_workflows, 0.0);
  out.flow_time.assign(num_workflows, 0.0);
  for (std::size_t t = 0; t < total; ++t) {
    const auto v = static_cast<graph::TaskId>(t);
    const sim::Placement& pl = schedule.placement(v);
    out.executions.push_back(
        {frozen.owner[t],
         static_cast<graph::TaskId>(t - frozen.offset[frozen.owner[t]]),
         pl.proc, pl.start, pl.finish});
    out.finish[frozen.owner[t]] =
        std::max(out.finish[frozen.owner[t]], pl.finish);
    out.makespan = std::max(out.makespan, pl.finish);
  }
  for (std::size_t w = 0; w < num_workflows; ++w) {
    out.flow_time[w] = out.finish[w] - frozen.arrival[w];
  }
  account_deadlines(frozen.deadline, frozen.hard, out);
  std::sort(out.executions.begin(), out.executions.end(),
            [](const StreamTaskExec& a, const StreamTaskExec& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.task < b.task;
            });
}

}  // namespace

StreamResult reference_stream(std::span<const StreamArrival> arrivals,
                              const StreamOptions& options,
                              std::span<const BusyInterval> busy) {
  const detail::FrozenStream frozen = build_combined(arrivals, busy);
  const sim::Problem problem(frozen.workload);
  const auto& g = problem.graph();
  sim::Schedule schedule(problem.num_tasks(), problem.num_procs());
  apply_busy(frozen.busy, schedule);
  // The stream never inserts into idle gaps.
  ReferenceItq itq(problem, schedule, options.pv,
                   options.policy == StreamPolicy::kHdltsPv
                       ? ItqRank::kDynamicPv
                       : ItqRank::kArrivalOrder,
                   /*insertion=*/false);
  // A workflow's edges stay inside it, so a task is ready once every parent
  // is placed, and never before its workflow is released.
  auto release = [&](graph::TaskId v) {
    for (const graph::Adjacent& p : g.parents(v)) {
      if (!schedule.is_placed(p.task)) return;
    }
    itq.push(v, frozen.floor[v]);
  };

  std::vector<double> row;
  for (const std::size_t w : frozen.phase_order) {
    for (std::size_t t = frozen.offset[w]; t < frozen.offset[w + 1]; ++t) {
      release(static_cast<graph::TaskId>(t));
    }
    while (!itq.empty()) {
      const graph::TaskId v = itq.pop(row);
      const std::size_t best = static_cast<std::size_t>(
          std::min_element(row.begin(), row.end()) - row.begin());
      const platform::ProcId proc = problem.procs()[best];
      schedule.place(v, proc, row[best] - problem.exec_time(v, proc),
                     row[best]);
      for (const graph::Adjacent& c : g.children(v)) release(c.task);
    }
  }
  StreamResult result;
  assemble_result(frozen, schedule, result);
  return result;
}

StreamHdlts::StreamHdlts(StreamOptions options) : options_(options) {}
StreamHdlts::~StreamHdlts() = default;
StreamHdlts::StreamHdlts(StreamHdlts&&) noexcept = default;
StreamHdlts& StreamHdlts::operator=(StreamHdlts&&) noexcept = default;

void StreamHdlts::compile(std::span<const StreamArrival> arrivals,
                          std::span<const BusyInterval> busy) {
  problem_.reset();
  frozen_ =
      std::make_unique<detail::FrozenStream>(build_combined(arrivals, busy));
  problem_.emplace(frozen_->workload);
}

const sim::Workload& StreamHdlts::combined() const {
  HDLTS_EXPECTS(frozen_ != nullptr);
  return frozen_->workload;
}

// Compiled fast path. Same algorithm as reference_stream, but the drain
// loop runs core::ItqEngine against the frozen combined
// sim::CompiledProblem, with every column live and each task's EST floored
// at its workflow's arrival. The FIFO policy ranks by push order and keeps
// no PV state, exactly like the reference.
void StreamHdlts::run_into(StreamResult& out, obs::DecisionTrace* sink) {
  HDLTS_EXPECTS(problem_.has_value());
  const detail::FrozenStream& frozen = *frozen_;
  const sim::CompiledProblem& cp = problem_->compiled();
  const auto procs = cp.procs();
  const std::size_t total = cp.num_tasks();
  const std::size_t num_workflows = frozen.arrival.size();
  const bool use_pv = options_.policy == StreamPolicy::kHdltsPv;

  util::ScratchArena& arena = arena_;
  arena.reset();

  if (sink != nullptr) {
    sink->on_begin({use_pv ? "stream-hdlts" : "stream-fifo", total,
                    cp.num_procs()});
  }

  schedule_.reset(total, cp.num_procs());
  sim::Schedule& schedule = schedule_;
  apply_busy(frozen.busy, schedule);
  // The stream never inserts into idle gaps (its EST is
  // max(ready, proc_available)).
  ItqEngine itq(arena, cp, schedule, options_.pv,
                use_pv ? ItqRank::kDynamicPv : ItqRank::kArrivalOrder,
                /*insertion=*/false);
  const auto pending = arena.alloc<std::size_t>(total);
  const auto released = arena.alloc<unsigned char>(total);
  std::fill(released.begin(), released.end(), static_cast<unsigned char>(0));

  for (const std::size_t w : frozen.phase_order) {
    if (sink != nullptr) sink->on_note("stream.arrival", frozen.arrival[w]);
    // Release workflow w's tasks into the scheduler's universe.
    for (std::size_t t = frozen.offset[w]; t < frozen.offset[w + 1]; ++t) {
      const auto v = static_cast<graph::TaskId>(t);
      released[v] = 1;
      pending[v] = 0;
      for (const graph::Adjacent& p : cp.parents(v)) {
        if (!schedule.is_placed(p.task)) ++pending[v];
      }
      if (pending[v] == 0) itq.push(v, frozen.floor[v]);
    }
    while (!itq.empty()) {
      const std::size_t pick = itq.pick();
      const graph::TaskId chosen = itq.task(pick);
      const auto row = itq.row(pick);
      const std::size_t best = itq.min_eft_column(row);
      const platform::ProcId proc = procs[best];
      const double best_eft = row[best];
      const double start = best_eft - cp.exec_time(chosen, proc);
      itq.remove(pick);

      const std::uint64_t mark = schedule.state_version();
      schedule.place(chosen, proc, start, best_eft);
      if (sink != nullptr) {
        sink->on_placement({chosen, proc, start, best_eft, false});
      }
      itq.refresh(mark);
      for (const graph::Adjacent& c : cp.children(chosen)) {
        if (released[c.task] != 0 && --pending[c.task] == 0) {
          itq.push(c.task, frozen.floor[c.task]);
        }
      }
    }
  }

  assemble_result(frozen, schedule, out);

  if (sink != nullptr) {
    obs::ScheduleEndEvent end;
    end.makespan = out.makespan;
    end.steps = total;
    sink->on_end(end);
  }
  flush_stream_metrics(num_workflows);
}

StreamResult StreamHdlts::run(std::span<const StreamArrival> arrivals,
                              obs::DecisionTrace* sink,
                              std::span<const BusyInterval> busy) {
  compile(arrivals, busy);
  StreamResult out;
  run_into(out, sink);
  return out;
}

StreamResult run_stream(std::span<const StreamArrival> arrivals,
                        const StreamOptions& options,
                        obs::DecisionTrace* sink,
                        std::span<const BusyInterval> busy) {
  StreamHdlts stream(options);
  return stream.run(arrivals, sink, busy);
}

}  // namespace hdlts::core
