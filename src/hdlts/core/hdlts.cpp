#include "hdlts/core/hdlts.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "hdlts/core/energy_aware.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/span.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/thread_pool.hpp"

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

// Dispatch on whether a sink is attached: the no-sink instantiation erases
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

// The HDLTS loop over the flat compiled view. Per-entry state lives in
// slot-indexed SoA rows carved from the scratch arena, and each entry's PV
// moments in arena-backed reduction-tree node slices driven through
// util::tree_ops — the same reduction arithmetic, leaf values and
// pv_from_roots formula as core::PvAccumulator, hence schedules bit-identical
// to core::ReferenceHdlts (tests/incremental_equiv_test.cpp). After the
// arena and the recycled Schedule are warm, a call performs zero heap
// allocations (tests/alloc_test.cpp).
//
// Rows live in *slots*, not task ids: a slot is acquired when a task enters
// the ITQ and recycled (LIFO) when it leaves, so the touched working set is
// bounded by the peak ITQ width — not by V — and the refresh scan walks hot
// cache lines instead of striding over V-sized arrays. PVs are additionally
// mirrored into an ITQ-position-parallel array so the selection scan is a
// single contiguous sweep.
template <typename Sink>
void Hdlts::run_compiled_impl(const sim::CompiledProblem& problem,
                              sim::Schedule& schedule,
                              [[maybe_unused]] Sink sink) const {
  util::ScratchArena& arena = scratch();
  arena.reset();

  // Kernel table resolved once per call; every backend is bit-identical to
  // the scalar reference (src/hdlts/simd/kernels.hpp), so schedules do not
  // depend on the HDLTS_SIMD setting.
  const simd::Dispatch& simd_k = simd::active();

  const std::size_t n = problem.num_tasks();
  const auto procs = problem.procs();
  const std::size_t np = procs.size();
  const PvKind kind = options_.pv;
  const auto op_a = pv_op_a(kind);
  const auto op_b = pv_op_b(kind);
  const double id_a = util::tree_ops::identity(op_a);
  const double id_b = util::tree_ops::identity(op_b);
  const std::size_t base = util::tree_ops::base_for(np);
  const std::size_t tree_len = 2 * base;

  const auto entries = problem.entry_tasks();
  const bool unique_entry = entries.size() == 1;

  if constexpr (Sink::kEnabled) {
    sink->on_begin({name(), problem.num_tasks(), problem.num_procs()});
  }
  std::uint64_t eft_recomputes = 0;
  std::uint64_t dup_count = 0;
  std::size_t itq_high_water = 0;
  std::size_t step_index = 0;

  // Slot-indexed SoA state (uninitialized until a slot is acquired). Slot
  // ids are handed out sequentially and recycled LIFO, so although the
  // arrays are sized for the worst case (every task independent at once),
  // only the first peak-ITQ-width slots are ever touched.
  const auto ready = arena.alloc<double>(n * np);
  const auto eft = arena.alloc<double>(n * np);
  const auto tree_a = arena.alloc<double>(n * tree_len);
  const auto tree_b = arena.alloc<double>(n * tree_len);
  const auto pending = arena.alloc<std::size_t>(n);
  // The ITQ: position-parallel arrays, compacted by swap-remove. Keeping
  // the PVs contiguous makes the argmax scan a linear sweep of doubles.
  const auto itq_task = arena.alloc<graph::TaskId>(n);
  const auto itq_slot = arena.alloc<std::uint32_t>(n);
  const auto itq_pv = arena.alloc<double>(n);
  std::size_t itq_size = 0;
  const auto free_slots = arena.alloc<std::uint32_t>(n);
  std::size_t free_size = 0;
  std::uint32_t next_slot = 0;

  auto eft_of = [&](graph::TaskId v, std::size_t slot, std::size_t pi) {
    const platform::ProcId p = procs[pi];
    const double duration = problem.exec_time(v, p);
    const double est = schedule.earliest_start(p, ready[slot * np + pi],
                                               duration, options_.insertion);
    return est + duration;
  };

  // Newly-independent tasks are enqueued first (slot ids and queue
  // positions assigned serially, exactly the order the one-at-a-time push
  // used to produce) and their rows/trees/PV filled second. Each fill
  // touches only its own slot and queue position and reads only state that
  // is constant for the round, so a round's fills produce the same bits
  // whether they run serially or across the team.
  const auto fresh = arena.alloc<std::size_t>(n);  // queue positions to fill
  std::size_t fresh_size = 0;
  auto enqueue_ready = [&](graph::TaskId v) {
    const std::uint32_t slot =
        free_size > 0 ? free_slots[--free_size] : next_slot++;
    itq_task[itq_size] = v;
    itq_slot[itq_size] = slot;
    fresh[fresh_size++] = itq_size;
    ++itq_size;
  };
  auto fill_entry = [&](std::size_t qi) {
    const graph::TaskId v = itq_task[qi];
    const std::uint32_t slot = itq_slot[qi];
    const auto r = ready.subspan(slot * np, np);
    const auto e = eft.subspan(slot * np, np);
    for (std::size_t pi = 0; pi < np; ++pi) {
      r[pi] = schedule.ready_time(problem, v, procs[pi]);
      e[pi] = eft_of(v, slot, pi);
    }
    double* const ta = tree_a.data() + slot * tree_len;
    double* const tb = tree_b.data() + slot * tree_len;
    // Leaves: the EFT row into A, pv_leaf_b into B, identity padding; then
    // combine_up rebuilds every internal node — the same node values as
    // tree_ops::fill_identity + leaf stores + tree_ops::combine_up.
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
    // In dynamic mode this is refreshed whenever a column changes; in
    // static mode this initial value is the frozen PV.
    itq_pv[qi] = pv_from_roots(kind, np, ta[1], tb[1]);
  };
  util::ThreadPool* const pool = thread_pool();
  auto fill_fresh = [&] {
    if (pool != nullptr && fresh_size * np >= options_.parallel_min_work) {
      pool->run_team(fresh_size, /*chunk=*/4,
                     [&](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i) fill_entry(fresh[i]);
                     });
    } else {
      for (std::size_t i = 0; i < fresh_size; ++i) fill_entry(fresh[i]);
    }
    fresh_size = 0;
  };

  const auto dirty = arena.alloc<std::size_t>(np);
  std::size_t dirty_size = 0;
  const auto dirty_seen = arena.alloc<unsigned char>(np);
  std::fill(dirty_seen.begin(), dirty_seen.end(), 0);
  auto refresh_dirty_columns = [&](std::uint64_t mark) {
    dirty_size = 0;
    for (const platform::ProcId p : schedule.procs_changed_since(mark)) {
      const std::size_t pi = problem.column_of(p);
      HDLTS_EXPECTS(pi != sim::CompiledProblem::kNoColumn);
      if (dirty_seen[pi] == 0) {
        dirty_seen[pi] = 1;
        dirty[dirty_size++] = pi;
      }
    }
    for (std::size_t di = 0; di < dirty_size; ++di) dirty_seen[dirty[di]] = 0;
    eft_recomputes += dirty_size * itq_size;
    auto refresh_entry = [&](std::size_t i) {
      const graph::TaskId v = itq_task[i];
      const std::size_t slot = itq_slot[i];
      const auto e = eft.subspan(slot * np, np);
      bool changed = false;
      for (std::size_t di = 0; di < dirty_size; ++di) {
        const std::size_t pi = dirty[di];
        const double f = eft_of(v, slot, pi);
        if (f != e[pi]) {
          e[pi] = f;
          // The EFT row feeds processor selection in both modes, but the PV
          // moments only matter under dynamic priorities (static mode reads
          // the frozen itq_pv value).
          if (options_.dynamic_priorities) {
            util::tree_ops::update(
                op_a, tree_a.subspan(slot * tree_len, tree_len), base, pi, f);
            util::tree_ops::update(op_b,
                                   tree_b.subspan(slot * tree_len, tree_len),
                                   base, pi, pv_leaf_b(kind, f));
            changed = true;
          }
        }
      }
      if (changed) {
        itq_pv[i] = pv_from_roots(kind, np, tree_a[slot * tree_len + 1],
                                  tree_b[slot * tree_len + 1]);
      }
    };
    // Entry i writes only its own slot's row/trees and itq_pv[i], and reads
    // only the (frozen for the round) schedule state — disjoint writes, so
    // the team fan-out is bit-identical to the serial sweep.
    if (pool != nullptr &&
        dirty_size * itq_size >= options_.parallel_min_work) {
      pool->run_team(itq_size, /*chunk=*/16,
                     [&](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i) refresh_entry(i);
                     });
    } else {
      for (std::size_t i = 0; i < itq_size; ++i) refresh_entry(i);
    }
  };

  for (graph::TaskId v = 0; v < n; ++v) {
    pending[v] = problem.in_degree(v);
    if (pending[v] == 0) enqueue_ready(v);
  }
  fill_fresh();

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

  while (itq_size > 0) {
    itq_high_water = std::max(itq_high_water, itq_size);
    // Highest PV wins; ties go to the lower task id (order-independent, so
    // the swap-remove compaction below cannot change picks).
    const std::size_t pick =
        simd_k.argmax_key(itq_pv.data(), itq_task.data(), itq_size);

    const graph::TaskId chosen = itq_task[pick];
    const std::uint32_t slot = itq_slot[pick];

    // CPU selection from the cached row. The row is slot-indexed, so running
    // the argmin before the queue compaction below reads the same bits.
    const auto row = eft.subspan(slot * np, np);
    const std::size_t best =
        options_.energy_weight == 0.0
            ? simd_k.argmin(row.data(), np)
            : select_weighted(row.data(), np, options_.energy_weight,
                              options_.deadline, [&](std::size_t pi) {
                                return problem.dyn_energy(chosen, procs[pi]);
                              });
    const platform::ProcId proc = procs[best];
    const double finish = row[best];
    const double start = finish - problem.exec_time(chosen, proc);

    if constexpr (Sink::kEnabled) {
      // Snapshot before the swap-remove so the ITQ spans are intact.
      obs::StepEvent ev;
      ev.step = step_index;
      ev.itq_tasks = {itq_task.data(), itq_size};
      ev.itq_pv = {itq_pv.data(), itq_size};
      ev.selected = chosen;
      ev.eft = row;
      ev.chosen = proc;
      ev.start = start;
      ev.finish = finish;
      sink->on_step(ev);
    }
    ++step_index;

    const std::size_t last = itq_size - 1;
    itq_task[pick] = itq_task[last];
    itq_slot[pick] = itq_slot[last];
    itq_pv[pick] = itq_pv[last];
    itq_size = last;
    // The chosen task's rows are dead from here on; recycle the slot so the
    // next push reuses the hot cache lines.
    free_slots[free_size++] = slot;

    const std::uint64_t mark = schedule.state_version();
    schedule.place(chosen, proc, start, finish);
    if constexpr (Sink::kEnabled) {
      sink->on_placement({chosen, proc, start, finish, false});
    }
    if (qualifies_for_duplication(chosen)) duplicate_task(chosen);
    refresh_dirty_columns(mark);
    for (const graph::Adjacent& c : problem.children(chosen)) {
      if (--pending[c.task] == 0) enqueue_ready(c.task);
    }
    fill_fresh();
  }

  HDLTS_ENSURES(schedule.num_placed() == n);
  if constexpr (Sink::kEnabled) {
    obs::ScheduleEndEvent ev;
    ev.makespan = schedule.makespan();
    ev.steps = step_index;
    ev.itq_high_water = itq_high_water;
    ev.arena_bytes = arena.used();
    ev.duplicates = dup_count;
    sink->on_end(ev);
  }
  HdltsMetrics::get().flush(schedule.num_placed(), dup_count, eft_recomputes,
                            itq_high_water);
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
