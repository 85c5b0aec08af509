// Scheduler interface shared by the HDLTS core and all baselines.
#pragma once

#include <memory>
#include <string>

#include "hdlts/sim/problem.hpp"
#include "hdlts/sim/schedule.hpp"
#include "hdlts/util/arena.hpp"

namespace hdlts::obs {
class DecisionTrace;
}

namespace hdlts::sched {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Short lower-case identifier ("heft", "hdlts", ...).
  virtual std::string name() const = 0;

  /// Produces a complete schedule for the problem. Implementations must only
  /// place work on problem.procs() (alive processors) and must return a
  /// schedule that passes sim::Schedule::validate.
  virtual sim::Schedule schedule(const sim::Problem& problem) const = 0;

  /// Like schedule() but reuses the caller's Schedule (reset, capacities
  /// kept). Ported schedulers override this as the real entry point: they
  /// read the problem's flat sim::CompiledProblem view, and with a warmed
  /// scratch() and a recycled `out` they reach a zero-allocation steady
  /// state (tests/alloc_test.cpp). Default: delegates to schedule().
  virtual void schedule_into(const sim::Problem& problem,
                             sim::Schedule& out) const {
    out = schedule(problem);
  }

  /// Optional per-decision trace sink (obs::DecisionTrace). Null by default;
  /// instrumented schedulers emit structured events into it, the rest fall
  /// back to obs::emit_schedule's begin/placement/end replay. Attaching a
  /// sink never changes the produced schedule; with the sink null HDLTS
  /// runs the exact uninstrumented instruction stream (the hot loop is
  /// templated on a compile-time sink policy).
  obs::DecisionTrace* trace_sink() const { return trace_sink_; }
  void set_trace_sink(obs::DecisionTrace* sink) { trace_sink_ = sink; }

 protected:
  /// Per-scheduler scratch memory, rewound at the top of every
  /// schedule()/schedule_into() call. Mutable for the same reason a memo
  /// cache would be; consequently a Scheduler instance must not be shared
  /// across threads mid-call (metrics::run_repetitions builds one per
  /// worker).
  util::ScratchArena& scratch() const { return scratch_; }

 private:
  obs::DecisionTrace* trace_sink_ = nullptr;
  mutable util::ScratchArena scratch_;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

}  // namespace hdlts::sched
