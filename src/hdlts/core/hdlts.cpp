#include "hdlts/core/hdlts.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "hdlts/core/energy_aware.hpp"
#include "hdlts/core/itq_engine.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/span.hpp"
#include "hdlts/obs/trace.hpp"

namespace hdlts::core {

namespace {

/// Registry references cached once (function-local static), so steady-state
/// calls touch only relaxed atomics: the hot loops aggregate into plain
/// locals and flush here once per schedule call.
struct HdltsMetrics {
  obs::Counter& calls;
  obs::Counter& tasks_placed;
  obs::Counter& duplicates_placed;
  obs::Counter& eft_refreshes;
  obs::Gauge& itq_high_water;
  obs::Histogram& itq_peak_width;

  static HdltsMetrics& get() {
    static constexpr std::array<double, 8> kWidthBounds = {1.0,  2.0,  4.0,
                                                           8.0,  16.0, 32.0,
                                                           64.0, 128.0};
    static HdltsMetrics m{
        obs::MetricRegistry::global().counter("hdlts.schedule_calls"),
        obs::MetricRegistry::global().counter("hdlts.tasks_placed"),
        obs::MetricRegistry::global().counter("hdlts.duplicates_placed"),
        obs::MetricRegistry::global().counter("hdlts.eft_refreshes"),
        obs::MetricRegistry::global().gauge("hdlts.itq_high_water"),
        obs::MetricRegistry::global().histogram("hdlts.itq_peak_width",
                                                kWidthBounds),
    };
    return m;
  }

  void flush(std::uint64_t placed, std::uint64_t duplicates,
             std::uint64_t refreshes, std::size_t high_water) {
    calls.add(1);
    tasks_placed.add(placed);
    duplicates_placed.add(duplicates);
    eft_refreshes.add(refreshes);
    itq_high_water.record_max(static_cast<double>(high_water));
    itq_peak_width.observe(static_cast<double>(high_water));
  }
};

/// Weighted EFT+energy CPU selection (energy_weight != 0 only; the weight-0
/// configuration never reaches this function — it runs the literal baseline
/// min-EFT scan, so its schedules stay bit-identical to plain HDLTS).
/// Among processors whose EFT meets the deadline, picks the argmin of
/// EFT + weight * E_dyn, ties to the lower column index; when no processor
/// meets the deadline, falls back to the baseline min-EFT scan. `dyn(pi)`
/// is the task's dynamic energy on column pi — the W * (busy - idle)
/// product sim::CompiledProblem::dyn_energy caches, which is also what
/// core::ReferenceHdlts recomputes from the platform.
template <typename DynEnergy>
std::size_t select_weighted(const double* row, std::size_t np, double weight,
                            double deadline, DynEnergy dyn) {
  std::size_t best = np;
  double best_key = 0.0;
  for (std::size_t pi = 0; pi < np; ++pi) {
    if (row[pi] > deadline) continue;
    const double key = row[pi] + weight * dyn(pi);
    if (best == np || key < best_key) {
      best = pi;
      best_key = key;
    }
  }
  if (best != np) return best;
  best = 0;
  for (std::size_t pi = 1; pi < np; ++pi) {
    if (row[pi] < row[best]) best = pi;
  }
  return best;
}

}  // namespace

sim::Schedule Hdlts::schedule(const sim::Problem& problem) const {
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  schedule_into(problem, out);
  return out;
}

void Hdlts::schedule_into(const sim::Problem& problem,
                          sim::Schedule& out) const {
  const obs::TimingSpan span("hdlts.schedule_into");
  out.reset(problem.num_tasks(), problem.num_procs());
  run_compiled(problem.compiled(), out);
}

// Branch on whether a sink is attached: the no-sink instantiation erases
// every telemetry block at compile time (obs::NullSink::kEnabled is false),
// so an uninstrumented schedule call runs the pre-telemetry hot loop.
void Hdlts::run_compiled(const sim::CompiledProblem& problem,
                         sim::Schedule& schedule) const {
  if (trace_sink() == nullptr) {
    run_compiled_impl(problem, schedule, obs::NullSink{});
  } else {
    run_compiled_impl(problem, schedule, obs::SinkRef{trace_sink()});
  }
}

// The HDLTS loop over the flat compiled view: the static mode of
// core::ItqEngine (every column live, EST floor 0, rank = dynamic or frozen
// PV). This loop adds what only the static mode has: the weighted
// energy/deadline CPU rule, Algorithm 1's duplication and the trace sink.
// After the arena and the recycled Schedule are warm, a call performs zero
// heap allocations (tests/alloc_test.cpp).
template <typename Sink>
void Hdlts::run_compiled_impl(const sim::CompiledProblem& problem,
                              sim::Schedule& schedule,
                              [[maybe_unused]] Sink sink) const {
  util::ScratchArena& arena = scratch();
  arena.reset();

  const std::size_t n = problem.num_tasks();
  const auto procs = problem.procs();
  const std::size_t np = procs.size();
  const auto entries = problem.entry_tasks();
  const bool unique_entry = entries.size() == 1;

  if constexpr (Sink::kEnabled) {
    sink->on_begin({name(), problem.num_tasks(), problem.num_procs()});
  }
  std::uint64_t dup_count = 0;
  std::size_t step_index = 0;

  ItqEngine itq(arena, problem, schedule, options_.pv,
                options_.dynamic_priorities ? ItqRank::kDynamicPv
                                            : ItqRank::kFrozenPv,
                options_.insertion);
  const auto pending = arena.alloc<std::size_t>(n);
  for (graph::TaskId v = 0; v < n; ++v) {
    pending[v] = problem.in_degree(v);
    if (pending[v] == 0) itq.push(v, 0.0);
  }

  auto qualifies_for_duplication = [&](graph::TaskId v) {
    if (options_.duplication == DuplicationRule::kOff) return false;
    if (unique_entry && v == entries[0]) return true;
    if (!options_.duplicate_all_sources) return false;
    const auto parents = problem.parents(v);
    if (parents.empty()) return true;
    for (const graph::Adjacent& p : parents) {
      if (!problem.is_free_task(p.task)) return false;
    }
    return true;
  };

  auto duplicate_task = [&](graph::TaskId v) {
    const auto children = problem.children(v);
    if (children.empty() || problem.is_free_task(v)) return;
    const sim::Placement& primary = schedule.placement(v);
    for (const platform::ProcId k : procs) {
      if (k == primary.proc) continue;
      const double dup_dur = problem.exec_time(v, k);
      const double dup_ready = schedule.ready_time(problem, v, k);
      const double dup_start =
          schedule.earliest_start(k, dup_ready, dup_dur, /*insertion=*/true);
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
      if constexpr (Sink::kEnabled) {
        // A second pass (cold; sink attached only) for the min arrival the
        // accept/reject verdict was compared against.
        double best_arrival = std::numeric_limits<double>::infinity();
        for (const graph::Adjacent& c : children) {
          const double arrival =
              primary.finish + problem.comm_time_data(c.data, primary.proc, k);
          best_arrival = std::min(best_arrival, arrival);
        }
        obs::DuplicationEvent ev;
        ev.task = v;
        ev.primary_proc = primary.proc;
        ev.candidate_proc = k;
        ev.dup_start = dup_start;
        ev.dup_finish = dup_finish;
        ev.best_arrival = best_arrival;
        ev.benefits = benefits;
        ev.num_children = children.size();
        ev.accepted = do_duplicate;
        sink->on_duplication(ev);
      }
      if (do_duplicate) {
        schedule.place_duplicate(v, k, dup_start, dup_finish);
        ++dup_count;
        if constexpr (Sink::kEnabled) {
          sink->on_placement({v, k, dup_start, dup_finish, true});
        }
      }
    }
  };

  while (!itq.empty()) {
    const std::size_t pick = itq.pick();
    const graph::TaskId chosen = itq.task(pick);
    const auto row = itq.row(pick);
    const std::size_t best =
        options_.energy_weight == 0.0
            ? itq.min_eft_column(row)
            : select_weighted(row.data(), np, options_.energy_weight,
                              options_.deadline, [&](std::size_t pi) {
                                return problem.dyn_energy(chosen, procs[pi]);
                              });
    const platform::ProcId proc = procs[best];
    const double finish = row[best];
    const double start = finish - problem.exec_time(chosen, proc);

    if constexpr (Sink::kEnabled) {
      // Snapshot before the removal so the ITQ spans are intact.
      obs::StepEvent ev;
      ev.step = step_index;
      ev.itq_tasks = itq.tasks();
      ev.itq_pv = itq.keys();
      ev.selected = chosen;
      ev.eft = row;
      ev.chosen = proc;
      ev.start = start;
      ev.finish = finish;
      sink->on_step(ev);
    }
    ++step_index;
    itq.remove(pick);

    const std::uint64_t mark = schedule.state_version();
    schedule.place(chosen, proc, start, finish);
    if constexpr (Sink::kEnabled) {
      sink->on_placement({chosen, proc, start, finish, false});
    }
    if (qualifies_for_duplication(chosen)) duplicate_task(chosen);
    itq.refresh(mark);
    for (const graph::Adjacent& c : problem.children(chosen)) {
      if (--pending[c.task] == 0) itq.push(c.task, 0.0);
    }
  }

  HDLTS_ENSURES(schedule.num_placed() == n);
  if constexpr (Sink::kEnabled) {
    obs::ScheduleEndEvent ev;
    ev.makespan = schedule.makespan();
    ev.steps = step_index;
    ev.itq_high_water = itq.high_water();
    ev.arena_bytes = arena.used();
    ev.duplicates = dup_count;
    sink->on_end(ev);
  }
  HdltsMetrics::get().flush(schedule.num_placed(), dup_count,
                            itq.eft_refreshes(), itq.high_water());
}

sched::Registry default_registry() {
  sched::Registry r = sched::baseline_registry();
  r.add("hdlts", [] { return std::make_unique<Hdlts>(); });
  r.add("hdlts-nodup", [] {
    HdltsOptions o;
    o.duplication = DuplicationRule::kOff;
    return std::make_unique<Hdlts>(o);
  });
  r.add("hdlts-static", [] {
    HdltsOptions o;
    o.dynamic_priorities = false;
    return std::make_unique<Hdlts>(o);
  });
  r.add("hdlts-popstddev", [] {
    HdltsOptions o;
    o.pv = PvKind::kPopulationStddev;
    return std::make_unique<Hdlts>(o);
  });
  r.add("hdlts-range", [] {
    HdltsOptions o;
    o.pv = PvKind::kRange;
    return std::make_unique<Hdlts>(o);
  });
  r.add("hdlts-insertion", [] {
    HdltsOptions o;
    o.insertion = true;
    return std::make_unique<Hdlts>(o);
  });
  r.add("hdlts-multidup", [] {
    HdltsOptions o;
    o.duplicate_all_sources = true;
    return std::make_unique<Hdlts>(o);
  });
  r.add("hdlts-energy", [] { return std::make_unique<EnergyAwareHdlts>(); });
  return r;
}

std::vector<sched::SchedulerPtr> paper_schedulers() {
  const sched::Registry r = default_registry();
  std::vector<sched::SchedulerPtr> out;
  for (const char* name : {"hdlts", "heft", "pets", "cpop", "peft", "sdbats"}) {
    out.push_back(r.make(name));
  }
  return out;
}

}  // namespace hdlts::core
