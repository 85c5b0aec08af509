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

/// Fills `cells` (rep-major) by running the repetitions through a scoped
/// svc::BatchEngine: one request per repetition, carrying the workload
/// factory and the derived seed. Each engine worker caches its scheduler
/// instances, so construction stays hoisted out of the repetition loop.
/// Results are keyed by (repetition, scheduler index), so the cells are
/// identical regardless of thread count or worker interleaving. Throws the
/// lowest failed repetition's first failure.
void run_repetitions(const WorkloadFactory& factory,
                     const std::vector<std::string>& scheduler_names,
                     const sched::Registry& registry,
                     const CompareOptions& options,
                     std::vector<CellResult>& cells) {
  const obs::TimingSpan span("experiment.run_repetitions");
  const std::size_t ns = scheduler_names.size();
  std::vector<std::string> failures(options.repetitions);
  // Runs on the engine workers. A repetition's results all arrive on the
  // one worker that ran it, in scheduler order, so failures[r.id] and the
  // repetition's cells have a single writer. Validation happens here (not
  // via the engine's check_schedules) so a violation names its scheduler.
  // Nothing may escape to the worker: a throwing metric is recorded like
  // any other failure.
  auto on_result = [&](const svc::BatchResult& r) {
    std::string& failure = failures[r.id];
    if (!failure.empty()) return;  // keep the repetition's first failure
    try {
      if (!r.ok) {
        failure = r.error;
        return;
      }
      if (options.check_schedules) {
        const auto violations = r.schedule->validate(*r.problem);
        if (!violations.empty()) {
          failure =
              scheduler_names[r.scheduler_index] + ": " + violations.front();
          return;
        }
      }
      const sim::Problem& problem = *r.problem;
      const sim::Schedule& schedule = *r.schedule;
      CellResult& cell = cells[r.id * ns + r.scheduler_index];
      cell.slr = slr(problem, schedule);
      cell.speedup = speedup(problem, schedule);
      cell.efficiency = efficiency(problem, schedule);
      cell.makespan = schedule.makespan();
      cell.energy = energy(problem, schedule).total();
      // The deadline is a function of the problem alone, so every scheduler
      // races the same bound on a given repetition.
      cell.missed_deadline =
          options.deadline_factor > 0.0 &&
          cell.makespan >
              options.deadline_factor * makespan_lower_bound(problem);
    } catch (const std::exception& e) {
      failure = e.what();
    }
  };
  svc::BatchEngineOptions engine_options;
  engine_options.threads = options.threads;
  engine_options.queue_capacity =
      std::max<std::size_t>(64, options.threads * 4);
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
  engine.shutdown(svc::BatchEngine::Drain::kDrain);  // joins the workers
  static obs::Counter& reps_counter =
      obs::MetricRegistry::global().counter("experiment.repetitions");
  static obs::Counter& schedules_counter =
      obs::MetricRegistry::global().counter("experiment.schedules");
  reps_counter.add(options.repetitions);
  schedules_counter.add(options.repetitions * ns);
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

  std::vector<CellResult> cells(ns * reps);
  run_repetitions(factory, scheduler_names, registry, options, cells);

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
  run_repetitions(factory, scheduler_names, registry, options, cells);

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
