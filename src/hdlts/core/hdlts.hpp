// Heterogeneous Dynamic List Task Scheduling (HDLTS) — the paper's
// contribution (§IV, Algorithms 1 and 2).
//
// Three phases:
//  1. Effective entry-task duplication: after the entry task is placed on its
//     min-EFT processor, it is duplicated (from t = 0) on every other
//     processor where the duplicate finishes before the entry's output could
//     arrive over the network (Algorithm 1) — so children start locally.
//  2. Dynamic task prioritization: only *independent* tasks (all parents
//     finished) sit in the Independent Task Queue (ITQ); after every
//     assignment the penalty value PV(v) = sample standard deviation of
//     EFT(v, p) over all processors is recomputed, so processor availability
//     feeds back into priorities.
//  3. CPU selection: the highest-PV task goes to its min-EFT processor, with
//     EST = max(ready, avail) (end-of-queue; the paper's Table I trace shows
//     no insertion).
//
// Semantics pinned by reproducing Table I exactly (see DESIGN.md): PV uses
// the n-1 (sample) standard deviation, duplicates occupy their processor
// from t = 0, and children read the entry's output from the cheapest copy.
// The per-step Table I trace is the decision stream an attached sink
// receives (sched::Scheduler::set_trace_sink, e.g. obs::RecordingTrace).
//
// Implementation: Hdlts runs the static mode of core::ItqEngine
// (core/itq_engine.hpp), the incremental ITQ the online and stream modes
// run on too. Each ITQ entry caches its EFT row and PV moments; after a
// placement only the columns of processors whose availability changed
// (sim::Schedule::procs_changed_since) are recomputed, and the PV follows in
// O(log P) per changed column (core/pv.hpp). Bit-identical to the
// brute-force recompute — enforced differentially against
// core::ReferenceHdlts in tests/incremental_equiv_test.cpp; see
// docs/ALGORITHMS.md "Complexity & incremental state".
#pragma once

#include <limits>
#include <vector>

#include "hdlts/core/pv.hpp"
#include "hdlts/sched/registry.hpp"
#include "hdlts/sched/scheduler.hpp"

namespace hdlts::core {

/// When to duplicate the entry task on a non-primary processor (Algorithm 1
/// leaves the quantifier over children ambiguous; both reproduce Table I).
enum class DuplicationRule {
  kOff,                  ///< never duplicate (ablation)
  kAnyChildBenefits,     ///< duplicate if it helps at least one child
  kAllChildrenBenefit,   ///< duplicate only if it helps every child
};

struct HdltsOptions {
  DuplicationRule duplication = DuplicationRule::kAnyChildBenefits;
  PvKind pv = PvKind::kSampleStddev;
  /// Idle-slot insertion for EST (off in the paper; ablation toggle).
  bool insertion = false;
  /// Recompute PVs after every assignment (the paper's "dynamic" list).
  /// When false, a task's PV is frozen when it enters the ITQ (ablation:
  /// the conventional static list).
  bool dynamic_priorities = true;
  /// Extension (paper §VI direction): on multi-entry workflows the pseudo
  /// entry has zero cost, so Algorithm 1 buys nothing — the exact reason
  /// HDLTS loses its edge on Montage (see EXPERIMENTS.md). When set, the
  /// duplication rule is applied to every *source* task (a task whose
  /// parents are all zero-cost pseudo tasks, or any entry), with duplicates
  /// placed into idle slots instead of assuming empty processors. On
  /// single-entry graphs with the entry scheduled first this reduces to
  /// Algorithm 1 exactly.
  bool duplicate_all_sources = false;
  /// Multi-objective extension (core::EnergyAwareHdlts): weight of dynamic
  /// energy in the CPU selection rule, which becomes
  ///   argmin over eligible p of EFT(v, p) + energy_weight * E_dyn(v, p)
  /// with E_dyn the cached sim::CompiledProblem::dyn_energy row. At exactly
  /// 0.0 the baseline min-EFT scan runs verbatim — the schedule is
  /// bit-identical to plain HDLTS (enforced in tests/pareto_test.cpp).
  double energy_weight = 0.0;
  /// Absolute completion deadline for the weighted rule: processors whose
  /// EFT would overrun it are ineligible; when every processor overruns
  /// (or at energy_weight 0) selection falls back to pure min-EFT. +inf
  /// (the default) makes every processor eligible.
  double deadline = std::numeric_limits<double>::infinity();
};

class Hdlts : public sched::Scheduler {
 public:
  explicit Hdlts(HdltsOptions options = {}) : options_(options) {}

  std::string name() const override { return "hdlts"; }
  const HdltsOptions& options() const { return options_; }

  sim::Schedule schedule(const sim::Problem& problem) const override;

  /// The zero-allocation entry point: with a warmed scratch arena and a
  /// recycled `out`, a steady-state call performs no heap allocation at all
  /// (tests/alloc_test.cpp).
  void schedule_into(const sim::Problem& problem,
                     sim::Schedule& out) const override;

 private:
  /// Runs over sim::CompiledProblem through core::ItqEngine, bit-identical
  /// to core::ReferenceHdlts (tests/incremental_equiv_test.cpp). Picks the
  /// run_compiled_impl instantiation by whether a trace sink is attached.
  void run_compiled(const sim::CompiledProblem& problem,
                    sim::Schedule& schedule) const;
  /// The hot loop, templated on a compile-time sink policy (obs::NullSink /
  /// obs::SinkRef): with NullSink every telemetry block is erased by
  /// `if constexpr`, so the uninstrumented path keeps its zero-allocation
  /// steady state and bit-identical schedules.
  template <typename Sink>
  void run_compiled_impl(const sim::CompiledProblem& problem,
                         sim::Schedule& schedule, Sink sink) const;

  HdltsOptions options_;
};

/// A registry with the baselines plus "hdlts", its ablation variants
/// ("hdlts-nodup", "hdlts-static", "hdlts-popstddev", "hdlts-range", ...)
/// and the multi-objective "hdlts-energy" (core::EnergyAwareHdlts).
sched::Registry default_registry();

/// The comparison set evaluated in the paper's §V, in reporting order:
/// HDLTS, HEFT, PETS, CPOP, PEFT, SDBATS.
std::vector<sched::SchedulerPtr> paper_schedulers();

}  // namespace hdlts::core
