// Online HDLTS with processor-failure injection (the paper's §IV claim that
// the dynamic ITQ "will still be able to efficiently assign the tasks to the
// remaining available CPUs" when a CPU malfunctions, and its §VI future-work
// direction).
//
// Execution model: HDLTS assigns independent tasks exactly as the static
// algorithm does. When processor q fails at time T:
//   * executions that finished anywhere by T are committed (their outputs
//     remain available — already in transit / checkpointed);
//   * the execution running on q at T is lost and its task is re-queued;
//   * assignments that had not started by T (on any processor) are revoked
//     and re-queued — the scheduler reconsiders them against the reduced
//     machine set;
//   * q accepts no further work, and every new execution starts at or
//     after T.
// An execution committed while running on a then-healthy machine is still
// killed by a *later* failure of that machine: every failure in the plan is
// applied before the run can declare completion, so no surviving execution
// ever overlaps its processor's failure time. With no failures the result is
// bit-identical to the static schedule (enforced by check::OnlineValidator
// and the test suite).
//
// Two implementations produce bit-identical results (tests/dst_test.cpp,
// tests/online_test.cpp):
//   * the compiled path (OnlineHdlts, behind run_online) runs
//     every phase against the workload's frozen sim::CompiledProblem with
//     alive-processor column masking, arena-backed SoA ready/EFT rows,
//     incremental dirty-column EFT refresh, and simd::active() kernels —
//     after warm-up a run performs zero heap allocations (run_into);
//   * the legacy path (run_online_legacy) rebuilds a sim::Problem per phase
//     and recomputes every ITQ row per round — the reference the compiled
//     path is differential-tested against.
#pragma once

#include <span>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/sim/schedule.hpp"
#include "hdlts/util/arena.hpp"

namespace hdlts::obs {
class DecisionTrace;
}

namespace hdlts::core {

struct ProcFailure {
  platform::ProcId proc = platform::kInvalidProc;
  double time = 0.0;
};

struct OnlineExec {
  graph::TaskId task = graph::kInvalidTask;
  platform::ProcId proc = platform::kInvalidProc;
  double start = 0.0;
  double finish = 0.0;
  bool duplicate = false;
  /// True when this attempt was killed by a processor failure.
  bool lost = false;
};

struct OnlineResult {
  std::vector<OnlineExec> executions;
  double makespan = 0.0;
  /// False when the workflow could not finish (all processors failed).
  bool completed = false;
  std::size_t lost_executions = 0;
};

/// Reusable online scheduler. Owns the scratch arena, the recycled Schedule,
/// and the committed/fresh execution buffers, so repeated runs over the same
/// problem shape reach a zero-heap-allocation steady state
/// (tests/alloc_test.cpp: OnlineCompiledSteadyState).
class OnlineHdlts {
 public:
  explicit OnlineHdlts(HdltsOptions options = {}) : options_(options) {}

  const HdltsOptions& options() const { return options_; }

  /// Runs the workflow under the fault plan. Validates and freezes the
  /// workload internally.
  OnlineResult run(const sim::Workload& workload,
                   std::span<const ProcFailure> failures,
                   obs::DecisionTrace* sink = nullptr);

  /// Entry point over an already-frozen problem: with a warm arena and a
  /// recycled `out`, a steady-state call performs no heap allocation.
  void run_into(const sim::Problem& problem,
                std::span<const ProcFailure> failures, OnlineResult& out,
                obs::DecisionTrace* sink = nullptr);

 private:
  HdltsOptions options_;
  util::ScratchArena arena_;
  sim::Schedule schedule_{0, 1};
  std::vector<OnlineExec> committed_;  // finished or unstoppable executions
  std::vector<OnlineExec> fresh_;      // current phase's tentative executions
};

/// Runs the workflow to completion under the given failures (which must not
/// kill every processor if completion is expected). Failures are applied in
/// time order; duplicate failures of the same processor are ignored.
/// `sink` (optional) receives the run as structured events: begin, a note
/// per phase start / applied failure / lost execution, every surviving
/// execution as a placement, and an end event with the online makespan.
/// Compiled fast path; bit-identical to run_online_legacy.
OnlineResult run_online(const sim::Workload& workload,
                        std::span<const ProcFailure> failures,
                        const HdltsOptions& options = {},
                        obs::DecisionTrace* sink = nullptr);

/// Reference implementation: rebuilds the problem every phase and recomputes
/// every EFT row per round. Kept as the differential-testing oracle for the
/// compiled path (and as the allocation negative control).
OnlineResult run_online_legacy(const sim::Workload& workload,
                               std::span<const ProcFailure> failures,
                               const HdltsOptions& options = {},
                               obs::DecisionTrace* sink = nullptr);

}  // namespace hdlts::core
