// Brute-force reference schedulers — the differential-testing oracles for
// the incremental hot paths (tests/incremental_equiv_test.cpp) and the
// pre-optimization baseline timed by bench/micro_scale.
//
// ReferenceHdlts re-implements HDLTS exactly as the pre-incremental code
// did: the full EFT row of every ITQ entry is rebuilt from scratch each
// round, and every availability / earliest-start query rescans the processor
// timeline instead of using sim::Schedule's O(1) caches. ReferenceHeft does
// the same for HEFT and computes its upward rank itself rather than through
// sched::upward_rank_mean. ReferenceHdlts honours every HdltsOptions field that
// shapes the schedule, the weighted energy/deadline rule included (dynamic
// energy recomputed from the Platform, not read from the compiled cache).
// Both must produce bit-identical schedules to their optimized counterparts
// on every input; neither is registered in default_registry() — they exist
// for verification and benchmarking only.
#pragma once

#include "hdlts/core/hdlts.hpp"
#include "hdlts/sched/scheduler.hpp"

namespace hdlts::core {

class ReferenceHdlts final : public sched::Scheduler {
 public:
  explicit ReferenceHdlts(HdltsOptions options = {}) : options_(options) {}

  std::string name() const override { return "hdlts-reference"; }
  const HdltsOptions& options() const { return options_; }

  sim::Schedule schedule(const sim::Problem& problem) const override;

 private:
  HdltsOptions options_;
};

class ReferenceHeft final : public sched::Scheduler {
 public:
  explicit ReferenceHeft(bool insertion = true) : insertion_(insertion) {}

  std::string name() const override { return "heft-reference"; }

  sim::Schedule schedule(const sim::Problem& problem) const override;

 private:
  bool insertion_;
};

}  // namespace hdlts::core
