#include "hdlts/metrics/experiment.hpp"

#include <algorithm>
#include <limits>

#include "hdlts/metrics/energy.hpp"
#include "hdlts/metrics/metrics.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/span.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/rng.hpp"

namespace hdlts::metrics {

namespace {

struct CellResult {
  double slr = 0.0;
  double speedup = 0.0;
  double efficiency = 0.0;
  double makespan = 0.0;
  double energy = 0.0;
  bool missed_deadline = false;
};

/// Fills the multi-objective cell fields; one body for the serial and
/// batched paths so their doubles match bitwise. The deadline is
/// scheduler-independent (a function of the problem alone), so every
/// scheduler races the same bound on a given repetition.
void fill_objectives(const sim::Problem& problem, const sim::Schedule& schedule,
                     double deadline_factor, CellResult& cell) {
  cell.energy = energy(problem, schedule).total();
  cell.missed_deadline =
      deadline_factor > 0.0 &&
      cell.makespan > deadline_factor * makespan_lower_bound(problem);
}

/// Shared rep runner: fills `cells` (rep-major) or records a failure.
///
/// With a pool the repetitions run through svc::BatchEngine (one request per
/// repetition, carrying the workload factory and the derived seed), whose
/// drain loops occupy the caller's otherwise-idle pool; each engine worker
/// caches its scheduler instances, so construction stays hoisted out of the
/// repetition loop exactly as in the serial path. Results are keyed by
/// (repetition, scheduler index), so the cells are identical regardless of
/// worker interleaving.
void run_repetitions(const WorkloadFactory& factory,
                     const std::vector<std::string>& scheduler_names,
                     const sched::Registry& registry,
                     const CompareOptions& options,
                     std::vector<CellResult>& cells,
                     std::vector<std::string>& failures) {
  const std::size_t ns = scheduler_names.size();
  auto run_rep = [&](std::size_t rep,
                     const std::vector<sched::SchedulerPtr>& schedulers,
                     sim::Schedule& schedule) {
    try {
      const std::uint64_t seed =
          util::derive_seed(options.base_seed, 0x9d1cULL, rep);
      const sim::Workload workload = factory(seed);
      const sim::Problem problem(workload);
      for (std::size_t si = 0; si < ns; ++si) {
        // Recycled per-chunk Schedule + each scheduler's scratch arena: a
        // steady-state repetition allocates only the workload itself.
        schedulers[si]->schedule_into(problem, schedule);
        if (options.check_schedules) {
          const auto violations = schedule.validate(problem);
          if (!violations.empty()) {
            failures[rep] = scheduler_names[si] + ": " + violations.front();
            return;
          }
        }
        CellResult& cell = cells[rep * ns + si];
        cell.slr = slr(problem, schedule);
        cell.speedup = speedup(problem, schedule);
        cell.efficiency = efficiency(problem, schedule);
        cell.makespan = schedule.makespan();
        fill_objectives(problem, schedule, options.deadline_factor, cell);
      }
    } catch (const std::exception& e) {
      failures[rep] = e.what();
    }
  };
  auto run_chunk = [&](std::size_t begin, std::size_t end) {
    const obs::TimingSpan chunk_span("experiment.chunk");
    std::vector<sched::SchedulerPtr> schedulers;
    schedulers.reserve(ns);
    try {
      for (const std::string& name : scheduler_names) {
        schedulers.push_back(registry.make(name));
        schedulers.back()->set_trace_sink(options.trace_sink);
      }
    } catch (const std::exception& e) {
      // Pool tasks must not throw; surface the construction failure the same
      // way a failed repetition is surfaced.
      for (std::size_t rep = begin; rep < end; ++rep) failures[rep] = e.what();
      return;
    }
    // Seed shape is irrelevant: schedule_into resets to the problem's shape,
    // keeping capacities so repetitions recycle the buffers.
    sim::Schedule schedule(0, 1);
    for (std::size_t rep = begin; rep < end; ++rep) {
      run_rep(rep, schedulers, schedule);
    }
  };
  auto run_batched = [&] {
    // Validation happens in the callback (not via the engine's own
    // check_schedules) so the failure messages match the serial path
    // byte-for-byte. The callback runs on the engine workers: every write
    // lands in a cell owned by this (repetition, scheduler) pair, and
    // failures[rep] is only written by the single worker processing `rep`.
    auto on_result = [&](const svc::BatchResult& r) {
      if (!r.ok) {
        if (failures[r.id].empty()) failures[r.id] = std::string(r.error);
        return;
      }
      if (options.check_schedules) {
        const auto violations = r.schedule->validate(*r.problem);
        if (!violations.empty()) {
          if (failures[r.id].empty()) {
            failures[r.id] =
                scheduler_names[r.scheduler_index] + ": " + violations.front();
          }
          return;
        }
      }
      CellResult& cell = cells[r.id * ns + r.scheduler_index];
      cell.slr = slr(*r.problem, *r.schedule);
      cell.speedup = speedup(*r.problem, *r.schedule);
      cell.efficiency = efficiency(*r.problem, *r.schedule);
      cell.makespan = r.schedule->makespan();
      fill_objectives(*r.problem, *r.schedule, options.deadline_factor, cell);
    };
    svc::BatchEngineOptions engine_options;
    engine_options.pool = options.pool;
    engine_options.queue_capacity = std::max<std::size_t>(
        std::size_t{64}, options.pool->size() * 4);
    engine_options.trace_sink = options.trace_sink;
    svc::BatchEngine engine(registry, on_result, engine_options);
    svc::BatchRequest request;
    request.generator = &factory;
    request.schedulers = scheduler_names;
    for (std::size_t rep = 0; rep < options.repetitions; ++rep) {
      request.id = rep;
      request.seed = util::derive_seed(options.base_seed, 0x9d1cULL, rep);
      engine.submit(request);  // blocking: the bounded queue is backpressure
    }
    engine.shutdown(svc::BatchEngine::Drain::kDrain);
  };
  {
    const obs::TimingSpan span("experiment.run_repetitions");
    if (options.pool != nullptr) {
      run_batched();
    } else {
      run_chunk(0, options.repetitions);
    }
  }
  {
    static obs::Counter& reps_counter =
        obs::MetricRegistry::global().counter("experiment.repetitions");
    static obs::Counter& schedules_counter =
        obs::MetricRegistry::global().counter("experiment.schedules");
    reps_counter.add(options.repetitions);
    schedules_counter.add(options.repetitions * ns);
  }
  for (const std::string& f : failures) {
    if (!f.empty()) throw Error("experiment repetition failed: " + f);
  }
}

void check_inputs(const std::vector<std::string>& scheduler_names,
                  const CompareOptions& options) {
  if (scheduler_names.empty()) {
    throw InvalidArgument("experiment needs >= 1 scheduler");
  }
  if (options.repetitions == 0) {
    throw InvalidArgument("experiment needs >= 1 repetition");
  }
}

}  // namespace

std::vector<SchedulerSummary> compare_schedulers(
    const WorkloadFactory& factory,
    const std::vector<std::string>& scheduler_names,
    const sched::Registry& registry, const CompareOptions& options) {
  check_inputs(scheduler_names, options);
  const std::size_t ns = scheduler_names.size();
  const std::size_t reps = options.repetitions;

  // Each worker instantiates its own scheduler objects (they are not
  // required to be thread-safe) but shares nothing mutable across reps.
  std::vector<CellResult> cells(ns * reps);
  std::vector<std::string> failures(reps);
  run_repetitions(factory, scheduler_names, registry, options, cells,
                  failures);

  std::vector<SchedulerSummary> out(ns);
  for (std::size_t si = 0; si < ns; ++si) {
    out[si].scheduler = scheduler_names[si];
  }
  std::vector<std::size_t> misses(ns, 0);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t si = 0; si < ns; ++si) {
      best = std::min(best, cells[rep * ns + si].makespan);
    }
    for (std::size_t si = 0; si < ns; ++si) {
      const CellResult& cell = cells[rep * ns + si];
      SchedulerSummary& s = out[si];
      s.slr.add(cell.slr);
      s.speedup.add(cell.speedup);
      s.efficiency.add(cell.efficiency);
      s.makespan.add(cell.makespan);
      s.energy.add(cell.energy);
      if (cell.makespan <= best * (1.0 + 1e-12)) ++s.wins;
      if (cell.missed_deadline) ++misses[si];
    }
  }
  for (std::size_t si = 0; si < ns; ++si) {
    out[si].deadline_miss_rate =
        static_cast<double>(misses[si]) / static_cast<double>(reps);
  }
  return out;
}

bool pareto_dominates(const ParetoPoint& a, const ParetoPoint& b) {
  const bool no_worse = a.makespan <= b.makespan && a.energy <= b.energy &&
                        a.miss_rate <= b.miss_rate;
  const bool better = a.makespan < b.makespan || a.energy < b.energy ||
                      a.miss_rate < b.miss_rate;
  return no_worse && better;
}

std::vector<ParetoPoint> pareto_frontier(std::span<const ParetoPoint> points) {
  std::vector<ParetoPoint> out;
  for (const ParetoPoint& p : points) {
    const bool dominated = std::any_of(
        points.begin(), points.end(),
        [&](const ParetoPoint& q) { return pareto_dominates(q, p); });
    if (!dominated) out.push_back(p);
  }
  std::sort(out.begin(), out.end(), [](const ParetoPoint& a,
                                       const ParetoPoint& b) {
    if (a.makespan != b.makespan) return a.makespan < b.makespan;
    if (a.energy != b.energy) return a.energy < b.energy;
    if (a.miss_rate != b.miss_rate) return a.miss_rate < b.miss_rate;
    return a.scheduler < b.scheduler;
  });
  return out;
}

std::vector<ParetoPoint> pareto_points(
    const std::vector<SchedulerSummary>& summaries) {
  std::vector<ParetoPoint> out;
  out.reserve(summaries.size());
  for (const SchedulerSummary& s : summaries) {
    out.push_back({s.scheduler, s.makespan.mean(), s.energy.mean(),
                   s.deadline_miss_rate});
  }
  return out;
}

std::vector<ParetoPoint> pareto_frontier(
    const std::vector<SchedulerSummary>& summaries) {
  return pareto_frontier(
      std::span<const ParetoPoint>(pareto_points(summaries)));
}

std::vector<std::vector<double>> win_matrix(
    const WorkloadFactory& factory,
    const std::vector<std::string>& scheduler_names,
    const sched::Registry& registry, const CompareOptions& options) {
  check_inputs(scheduler_names, options);
  const std::size_t ns = scheduler_names.size();
  const std::size_t reps = options.repetitions;
  std::vector<CellResult> cells(ns * reps);
  std::vector<std::string> failures(reps);
  run_repetitions(factory, scheduler_names, registry, options, cells,
                  failures);

  std::vector<std::vector<double>> matrix(ns, std::vector<double>(ns, 0.0));
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t j = 0; j < ns; ++j) {
        if (i == j) continue;
        if (cells[rep * ns + i].makespan <
            cells[rep * ns + j].makespan - 1e-12) {
          matrix[i][j] += 1.0;
        }
      }
    }
  }
  for (auto& row : matrix) {
    for (double& v : row) v /= static_cast<double>(reps);
  }
  return matrix;
}

}  // namespace hdlts::metrics
