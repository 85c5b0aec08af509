// Experiment harness: runs a set of schedulers over many seeded repetitions
// of a workload family and aggregates the paper's metrics. The repetitions
// run as requests on a scoped svc::BatchEngine; each derives its RNG from
// (base seed, repetition) and its results are keyed by repetition, so the
// summaries are bit-identical at every thread count.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hdlts/sched/registry.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/util/stats.hpp"

namespace hdlts::obs {
class DecisionTrace;
}

namespace hdlts::metrics {

/// Produces a fresh workload for a repetition seed.
using WorkloadFactory = std::function<sim::Workload(std::uint64_t seed)>;

/// Aggregated metrics of one scheduler over all repetitions.
struct SchedulerSummary {
  std::string scheduler;
  util::RunningStats slr;
  util::RunningStats speedup;
  util::RunningStats efficiency;
  util::RunningStats makespan;
  /// Total schedule energy (metrics::energy(...).total()) per repetition.
  util::RunningStats energy;
  /// Repetitions in which this scheduler produced the (possibly shared)
  /// best makespan among the compared set.
  std::size_t wins = 0;
  /// Fraction of repetitions whose makespan overran the repetition's
  /// deadline (CompareOptions::deadline_factor; 0 when deadlines are off).
  double deadline_miss_rate = 0.0;
};

struct CompareOptions {
  std::size_t repetitions = 30;
  std::uint64_t base_seed = 42;
  /// Validate every schedule against the problem (on in tests; costs time).
  bool check_schedules = false;
  /// Engine worker threads running the repetitions (0 = hardware
  /// concurrency). Results do not depend on it.
  std::size_t threads = 1;
  /// Optional decision-trace sink attached to every scheduler instance. It
  /// is called from the engine's worker threads, so it must be thread-safe
  /// (obs::RecordingTrace is); with threads > 1, events from different
  /// repetitions interleave in arrival order.
  obs::DecisionTrace* trace_sink = nullptr;
  /// Multi-objective mode: when > 0 every repetition gets the
  /// scheduler-independent deadline deadline_factor * makespan_lower_bound
  /// (the same bound for every scheduler on that repetition's problem), and
  /// each summary's deadline_miss_rate reports how often the scheduler
  /// overran it. 0 (the default) disables deadline accounting.
  double deadline_factor = 0.0;
};

/// Runs every named scheduler from `registry` on `repetitions` workloads
/// drawn from `factory`. Summaries come back in the order of
/// `scheduler_names`. Throws Error("experiment repetition failed: <msg>")
/// for the lowest failed repetition, with that repetition's first failure:
/// a factory, scheduler or metric throw (e.g. SLR of a zero-cost critical
/// path), or an invalid schedule while check_schedules is set.
std::vector<SchedulerSummary> compare_schedulers(
    const WorkloadFactory& factory,
    const std::vector<std::string>& scheduler_names,
    const sched::Registry& registry, const CompareOptions& options = {});

/// Pairwise comparison: entry [i][j] is the fraction of repetitions where
/// scheduler i's makespan was strictly lower than scheduler j's (diagonal
/// 0). Rows/columns follow `scheduler_names`. Same repetition seeds as
/// compare_schedulers, so the two views are consistent.
std::vector<std::vector<double>> win_matrix(
    const WorkloadFactory& factory,
    const std::vector<std::string>& scheduler_names,
    const sched::Registry& registry, const CompareOptions& options = {});

/// One scheduler's position in the makespan x energy x deadline-miss-rate
/// objective space (all three minimized).
struct ParetoPoint {
  std::string scheduler;
  double makespan = 0.0;
  double energy = 0.0;
  double miss_rate = 0.0;
};

/// True when `a` is at least as good as `b` on every objective and strictly
/// better on at least one (the standard Pareto dominance order).
bool pareto_dominates(const ParetoPoint& a, const ParetoPoint& b);

/// The non-dominated subset of `points`. Deterministic regardless of input
/// order: membership is input-order independent (each point is tested
/// against every other), and the result is sorted by makespan, then energy,
/// then miss rate, then scheduler name. Objective-identical points are
/// mutually non-dominated and all kept.
std::vector<ParetoPoint> pareto_frontier(std::span<const ParetoPoint> points);

/// Summaries -> objective points (mean makespan, mean energy, miss rate),
/// in summary order.
std::vector<ParetoPoint> pareto_points(
    const std::vector<SchedulerSummary>& summaries);

/// Convenience: pareto_frontier(pareto_points(summaries)).
std::vector<ParetoPoint> pareto_frontier(
    const std::vector<SchedulerSummary>& summaries);

}  // namespace hdlts::metrics
