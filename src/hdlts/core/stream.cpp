#include "hdlts/core/stream.hpp"

#include <algorithm>
#include <numeric>

#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/reduction_tree.hpp"

namespace hdlts::core {

namespace {

// PV arithmetic comes from core/pv.hpp (shared with the incremental and
// reference schedulers, so every HDLTS mode ranks by identical values).

struct ItqEntry {
  graph::TaskId task = graph::kInvalidTask;  // combined id space
  std::vector<double> ready;                 // per alive processor
  std::size_t fifo_order = 0;                // arrival order into the ITQ
};

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
/// and id-space bookkeeping both implementations share.
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
    if (a.arrival < 0.0) {
      throw InvalidArgument("arrival times must be non-negative");
    }
    if (a.deadline < a.arrival) {
      throw InvalidArgument("deadline precedes the workflow's arrival");
    }
  }
  for (const BusyInterval& b : busy) {
    if (b.proc >= num_procs) {
      throw InvalidArgument("busy interval uses unknown processor " +
                            std::to_string(b.proc));
    }
    if (b.start < 0.0 || b.finish < b.start) {
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

  // Arrival phases in time order.
  out.phase_order.resize(arrivals.size());
  std::iota(out.phase_order.begin(), out.phase_order.end(), 0);
  std::sort(out.phase_order.begin(), out.phase_order.end(),
            [&](std::size_t a, std::size_t b) {
              return arrivals[a].arrival < arrivals[b].arrival;
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

/// Deadline bookkeeping shared by both implementations: compares each
/// workflow's finish against its (absolute) deadline with strict >, so the
/// compiled and legacy paths stay exactly == on every new field.
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

/// Pins the pre-occupied intervals onto a freshly reset schedule; the same
/// call order in both paths keeps their timelines bit-identical.
void apply_busy(std::span<const BusyInterval> busy, sim::Schedule& schedule) {
  for (const BusyInterval& b : busy) {
    schedule.place_busy(b.proc, b.start, b.finish);
  }
}

}  // namespace

StreamResult run_stream_legacy(std::span<const StreamArrival> arrivals,
                               const StreamOptions& options,
                               obs::DecisionTrace* sink,
                               std::span<const BusyInterval> busy) {
  const detail::FrozenStream frozen = build_combined(arrivals, busy);
  const std::size_t num_procs = frozen.workload.platform.num_procs();
  const std::size_t total = frozen.workload.graph.num_tasks();
  const std::vector<double>& floor = frozen.floor;

  const sim::Problem problem(frozen.workload);
  const auto& procs = problem.procs();
  const std::size_t np = procs.size();

  if (sink != nullptr) {
    sink->on_begin({options.policy == StreamPolicy::kHdltsPv ? "stream-hdlts"
                                                             : "stream-fifo",
                    total, num_procs});
  }

  sim::Schedule schedule(total, num_procs);
  apply_busy(frozen.busy, schedule);
  std::vector<std::size_t> pending(total, 0);
  std::vector<bool> released(total, false);
  std::vector<ItqEntry> itq;
  std::size_t fifo_counter = 0;

  auto eft_of = [&](const ItqEntry& e, std::size_t pi) {
    const platform::ProcId p = procs[pi];
    const double duration = problem.exec_time(e.task, p);
    const double ready = std::max(e.ready[pi], floor[e.task]);
    const double est = std::max(ready, schedule.proc_available(p));
    return est + duration;
  };
  auto push_ready = [&](graph::TaskId v) {
    ItqEntry e;
    e.task = v;
    e.ready.resize(np);
    for (std::size_t pi = 0; pi < np; ++pi) {
      e.ready[pi] = schedule.ready_time(problem, v, procs[pi]);
    }
    e.fifo_order = fifo_counter++;
    itq.push_back(std::move(e));
  };

  auto drain_itq = [&]() {
    while (!itq.empty()) {
      std::size_t pick = 0;
      if (options.policy == StreamPolicy::kHdltsPv) {
        std::vector<double> pv(itq.size());
        for (std::size_t i = 0; i < itq.size(); ++i) {
          std::vector<double> row(np);
          for (std::size_t pi = 0; pi < np; ++pi) row[pi] = eft_of(itq[i], pi);
          pv[i] = penalty_value(options.pv, row);
        }
        for (std::size_t i = 1; i < itq.size(); ++i) {
          if (pv[i] > pv[pick] ||
              (pv[i] == pv[pick] && itq[i].task < itq[pick].task)) {
            pick = i;
          }
        }
      } else {
        for (std::size_t i = 1; i < itq.size(); ++i) {
          if (itq[i].fifo_order < itq[pick].fifo_order) pick = i;
        }
      }
      const ItqEntry chosen = std::move(itq[pick]);
      itq.erase(itq.begin() + static_cast<std::ptrdiff_t>(pick));
      std::size_t best = 0;
      double best_eft = eft_of(chosen, 0);
      for (std::size_t pi = 1; pi < np; ++pi) {
        const double eft = eft_of(chosen, pi);
        if (eft < best_eft) {
          best_eft = eft;
          best = pi;
        }
      }
      const platform::ProcId proc = procs[best];
      const double start = best_eft - problem.exec_time(chosen.task, proc);
      schedule.place(chosen.task, proc, start, best_eft);
      if (sink != nullptr) {
        sink->on_placement({chosen.task, proc, start, best_eft, false});
      }
      for (const graph::Adjacent& c : problem.graph().children(chosen.task)) {
        if (released[c.task] && --pending[c.task] == 0) push_ready(c.task);
      }
    }
  };

  for (const std::size_t w : frozen.phase_order) {
    if (sink != nullptr) sink->on_note("stream.arrival", arrivals[w].arrival);
    // Release workflow w's tasks into the scheduler's universe.
    for (std::size_t t = frozen.offset[w]; t < frozen.offset[w + 1]; ++t) {
      const auto v = static_cast<graph::TaskId>(t);
      released[v] = true;
      pending[v] = 0;
      for (const graph::Adjacent& p : problem.graph().parents(v)) {
        if (!schedule.is_placed(p.task)) ++pending[v];
      }
      if (pending[v] == 0) push_ready(v);
    }
    drain_itq();
  }

  HDLTS_ENSURES(schedule.num_placed() == total);
  StreamResult result;
  result.finish.assign(arrivals.size(), 0.0);
  result.flow_time.assign(arrivals.size(), 0.0);
  for (std::size_t t = 0; t < total; ++t) {
    const auto v = static_cast<graph::TaskId>(t);
    const sim::Placement& pl = schedule.placement(v);
    result.executions.push_back(
        {frozen.owner[t],
         static_cast<graph::TaskId>(t - frozen.offset[frozen.owner[t]]),
         pl.proc, pl.start, pl.finish});
    result.finish[frozen.owner[t]] =
        std::max(result.finish[frozen.owner[t]], pl.finish);
    result.makespan = std::max(result.makespan, pl.finish);
  }
  for (std::size_t w = 0; w < arrivals.size(); ++w) {
    result.flow_time[w] = result.finish[w] - arrivals[w].arrival;
  }
  account_deadlines(frozen.deadline, frozen.hard, result);
  std::sort(result.executions.begin(), result.executions.end(),
            [](const StreamTaskExec& a, const StreamTaskExec& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.task < b.task;
            });

  if (sink != nullptr) {
    obs::ScheduleEndEvent end;
    end.makespan = result.makespan;
    end.steps = total;
    sink->on_end(end);
  }
  flush_stream_metrics(arrivals.size());
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

// Compiled fast path. Same algorithm as run_stream_legacy, but the drain
// loop runs against the frozen combined sim::CompiledProblem with the
// hdlts.cpp compiled-loop layout: slot-recycled arena-backed SoA ready/EFT
// rows, PV reduction trees maintained incrementally from the Schedule
// change log (a placement only moves its own processor's availability, so
// only that EFT column can change), and simd::active() argmin/argmax_key
// kernels for CPU and task selection. The FIFO policy keeps a contiguous
// fifo-order array instead (unique values, scanned for the minimum), and
// skips all PV work exactly like the legacy path does.
void StreamHdlts::run_into(StreamResult& out, obs::DecisionTrace* sink) {
  HDLTS_EXPECTS(problem_.has_value());
  const detail::FrozenStream& frozen = *frozen_;
  const sim::CompiledProblem& cp = problem_->compiled();
  const auto procs = cp.procs();
  const std::size_t np = procs.size();
  const std::size_t total = cp.num_tasks();
  const std::size_t num_workflows = frozen.arrival.size();
  const bool use_pv = options_.policy == StreamPolicy::kHdltsPv;
  const PvKind kind = options_.pv;
  const auto op_a = pv_op_a(kind);
  const auto op_b = pv_op_b(kind);
  const double id_a = util::tree_ops::identity(op_a);
  const double id_b = util::tree_ops::identity(op_b);
  const std::size_t base = util::tree_ops::base_for(np > 0 ? np : 1);
  const std::size_t tree_len = 2 * base;

  util::ScratchArena& arena = arena_;
  arena.reset();
  const simd::Dispatch& simd_k = simd::active();

  if (sink != nullptr) {
    sink->on_begin({use_pv ? "stream-hdlts" : "stream-fifo", total,
                    cp.num_procs()});
  }

  const auto pending = arena.alloc<std::size_t>(total);
  const auto released = arena.alloc<unsigned char>(total);
  const auto ready = arena.alloc<double>(total * np);
  const auto eft = arena.alloc<double>(total * np);
  // PV state only when the policy ranks by PV; the arena spans are carved
  // regardless (cheap) but trees are only written on the PV path.
  const auto tree_a = arena.alloc<double>(use_pv ? total * tree_len : 0);
  const auto tree_b = arena.alloc<double>(use_pv ? total * tree_len : 0);
  const auto itq_task = arena.alloc<graph::TaskId>(total);
  const auto itq_slot = arena.alloc<std::uint32_t>(total);
  const auto itq_pv = arena.alloc<double>(total);
  const auto itq_fifo = arena.alloc<std::size_t>(total);
  const auto free_slots = arena.alloc<std::uint32_t>(total);
  const auto fresh_q = arena.alloc<std::size_t>(total);
  const auto dirty = arena.alloc<std::size_t>(np);
  const auto dirty_seen = arena.alloc<unsigned char>(np);

  std::fill(released.begin(), released.end(), static_cast<unsigned char>(0));
  std::fill(dirty_seen.begin(), dirty_seen.end(),
            static_cast<unsigned char>(0));

  schedule_.reset(total, cp.num_procs());
  sim::Schedule& schedule = schedule_;
  apply_busy(frozen.busy, schedule);
  std::size_t itq_size = 0;
  std::size_t free_size = 0;
  std::uint32_t next_slot = 0;
  std::size_t fresh_size = 0;
  std::size_t fifo_counter = 0;

  auto eft_of = [&](graph::TaskId v, std::uint32_t slot, std::size_t pi) {
    const platform::ProcId p = procs[pi];
    const double duration = cp.exec_time(v, p);
    const double rdy = std::max(ready[slot * np + pi], frozen.floor[v]);
    const double est = std::max(rdy, schedule.proc_available(p));
    return est + duration;
  };
  auto enqueue_ready = [&](graph::TaskId v) {
    const std::uint32_t slot =
        free_size > 0 ? free_slots[--free_size] : next_slot++;
    itq_task[itq_size] = v;
    itq_slot[itq_size] = slot;
    itq_pv[itq_size] = 0.0;  // overwritten on the PV path; keeps the
                             // swap-remove below off uninitialized memory
    itq_fifo[itq_size] = fifo_counter++;
    fresh_q[fresh_size++] = itq_size;
    ++itq_size;
  };
  auto fill_entry = [&](std::size_t qi) {
    const graph::TaskId v = itq_task[qi];
    const std::uint32_t slot = itq_slot[qi];
    const auto r = ready.subspan(slot * np, np);
    const auto e = eft.subspan(slot * np, np);
    for (std::size_t pi = 0; pi < np; ++pi) {
      r[pi] = schedule.ready_time(cp, v, procs[pi]);
      e[pi] = eft_of(v, slot, pi);
    }
    if (!use_pv) return;
    double* const ta = tree_a.data() + slot * tree_len;
    double* const tb = tree_b.data() + slot * tree_len;
    std::copy(e.begin(), e.end(), ta + base);
    if (kind == PvKind::kRange) {
      std::copy(e.begin(), e.end(), tb + base);
    } else {
      simd_k.square(e.data(), tb + base, np);
    }
    for (std::size_t pi = np; pi < base; ++pi) {
      ta[base + pi] = id_a;
      tb[base + pi] = id_b;
    }
    simd_k.combine_up(op_a, ta, base);
    simd_k.combine_up(op_b, tb, base);
    itq_pv[qi] = pv_from_roots(kind, np, ta[1], tb[1]);
  };
  auto fill_fresh = [&]() {
    for (std::size_t i = 0; i < fresh_size; ++i) fill_entry(fresh_q[i]);
    fresh_size = 0;
  };

  auto refresh_dirty_columns = [&](std::uint64_t mark) {
    std::size_t dirty_size = 0;
    for (const platform::ProcId p : schedule.procs_changed_since(mark)) {
      const std::size_t pi = cp.column_of(p);
      HDLTS_EXPECTS(pi != sim::CompiledProblem::kNoColumn);
      if (dirty_seen[pi] == 0) {
        dirty_seen[pi] = 1;
        dirty[dirty_size++] = pi;
      }
    }
    for (std::size_t di = 0; di < dirty_size; ++di) dirty_seen[dirty[di]] = 0;
    for (std::size_t i = 0; i < itq_size; ++i) {
      const graph::TaskId v = itq_task[i];
      const std::uint32_t slot = itq_slot[i];
      const auto e = eft.subspan(slot * np, np);
      bool changed = false;
      for (std::size_t di = 0; di < dirty_size; ++di) {
        const std::size_t pi = dirty[di];
        const double f = eft_of(v, slot, pi);
        if (f != e[pi]) {
          e[pi] = f;
          if (use_pv) {
            util::tree_ops::update(
                op_a, tree_a.subspan(slot * tree_len, tree_len), base, pi, f);
            util::tree_ops::update(
                op_b, tree_b.subspan(slot * tree_len, tree_len), base, pi,
                pv_leaf_b(kind, f));
            changed = true;
          }
        }
      }
      if (changed) {
        itq_pv[i] = pv_from_roots(kind, np, tree_a[slot * tree_len + 1],
                                  tree_b[slot * tree_len + 1]);
      }
    }
  };

  auto drain_itq = [&]() {
    while (itq_size > 0) {
      std::size_t pick = 0;
      if (use_pv) {
        // Highest PV wins; ties to the lower task id (order-independent).
        pick = simd_k.argmax_key(itq_pv.data(), itq_task.data(), itq_size);
      } else {
        // FIFO orders are unique, so the minimum is order-independent too.
        for (std::size_t i = 1; i < itq_size; ++i) {
          if (itq_fifo[i] < itq_fifo[pick]) pick = i;
        }
      }
      const graph::TaskId chosen = itq_task[pick];
      const std::uint32_t slot = itq_slot[pick];
      const auto row = eft.subspan(slot * np, np);
      const std::size_t best = simd_k.argmin(row.data(), np);
      const platform::ProcId proc = procs[best];
      const double best_eft = row[best];
      const double start = best_eft - cp.exec_time(chosen, proc);

      const std::size_t last = itq_size - 1;
      itq_task[pick] = itq_task[last];
      itq_slot[pick] = itq_slot[last];
      itq_pv[pick] = itq_pv[last];
      itq_fifo[pick] = itq_fifo[last];
      itq_size = last;
      free_slots[free_size++] = slot;

      const std::uint64_t mark = schedule.state_version();
      schedule.place(chosen, proc, start, best_eft);
      if (sink != nullptr) {
        sink->on_placement({chosen, proc, start, best_eft, false});
      }
      refresh_dirty_columns(mark);
      for (const graph::Adjacent& c : cp.children(chosen)) {
        if (released[c.task] != 0 && --pending[c.task] == 0) {
          enqueue_ready(c.task);
        }
      }
      fill_fresh();
    }
  };

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
      if (pending[v] == 0) enqueue_ready(v);
    }
    fill_fresh();
    drain_itq();
  }

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
