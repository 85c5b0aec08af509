// Deterministic simulation testing (DST) for the dynamic schedulers.
//
// run_dst() sweeps seed × workload family (random / FFT / Montage / MD /
// fork-join) × fault plan, replays every run through the check validators,
// diffs it (exact ==) against the naive dynamic references
// core::reference_online / core::reference_stream, and — when a run
// violates an invariant, a plan's forced outcome or that diff — emits
// a *minimized* reproducer: failures are greedily dropped, then the task
// graph is bisected down a topological prefix, and the derived seed is
// printed so the exact cell can be replayed (docs/TESTING.md shows how).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hdlts::check {

struct DstOptions {
  /// Seeds per workload family. The default (5) yields > 200 validated
  /// fault-injection runs across the five families; scale it up for soaks
  /// (tests read HDLTS_DST_ROUNDS).
  std::size_t rounds = 5;
  std::uint64_t base_seed = 0x9d57u;
  /// Also run and validate the stream scheduler (both ITQ policies).
  bool include_stream = true;
  /// Also run a periodic-arrival stream round per cell: jittered arrivals
  /// with soft/hard deadlines and pre-occupied busy intervals, validated
  /// through the deadline-aware StreamValidator and diffed against
  /// core::reference_stream (requires include_stream).
  bool include_periodic = true;
  /// Shrink counterexamples before reporting (drop failures, bisect tasks).
  bool minimize = true;
};

struct DstCounterexample {
  /// The derived per-cell seed — feeding it back through the documented
  /// recipe reproduces the failing run exactly.
  std::uint64_t seed = 0;
  std::string family;
  std::string scenario;
  std::vector<std::string> violations;
  /// One-line minimized reproducer (seed, family, surviving failures,
  /// task-prefix size, first violation).
  std::string reproducer;
};

struct DstReport {
  std::size_t online_runs = 0;
  std::size_t stream_runs = 0;
  std::vector<DstCounterexample> counterexamples;

  std::size_t runs() const { return online_runs + stream_runs; }
  bool ok() const { return counterexamples.empty(); }
};

/// Runs the sweep. Deterministic: same options ⇒ same report.
DstReport run_dst(const DstOptions& options = {});

}  // namespace hdlts::check
