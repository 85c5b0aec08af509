// Brute-force references — the differential-testing oracles for every HDLTS
// mode (tests/incremental_equiv_test.cpp, tests/online_test.cpp,
// tests/stream_test.cpp, check::run_dst) and HEFT, and the slow baselines
// timed by bench/micro_scale and bench/micro_dynamic.
//
// ReferenceItq is the naive Independent Task Queue: the brute-force
// counterpart of core::ItqEngine, with the same three inputs (an EST floor
// per pushed task, the live processors — here the sim::Problem's procs() —
// and an ItqRank). It caches nothing: every pop() rebuilds every queued
// task's EFT row, and every earliest start is a full timeline scan, never
// sim::Schedule's earliest_start / proc_available caches. ReferenceHdlts,
// reference_online and reference_stream are thin loops over it, as Hdlts,
// OnlineHdlts and StreamHdlts are over the engine. ReferenceHdlts honours
// every HdltsOptions field that shapes the schedule, the weighted
// energy/deadline rule included (dynamic energy recomputed from the
// Platform, not read from the compiled cache). ReferenceHeft does the same
// for HEFT and computes its upward rank itself rather than through
// sched::upward_rank_mean. Each must match its production counterpart bit
// for bit on every input; none is registered in default_registry(), takes a
// trace sink or flushes a metric.
#pragma once

#include <span>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/itq_engine.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/sched/scheduler.hpp"

namespace hdlts::core {

class ReferenceItq {
 public:
  /// An empty ITQ over problem.procs(). Reads `schedule`, never writes it.
  ReferenceItq(const sim::Problem& problem, const sim::Schedule& schedule,
               PvKind pv, ItqRank rank, bool insertion);

  /// Enqueues `v`, whose parents are all placed: stores its ready row
  /// floored at `floor` and, under kFrozenPv, its PV now.
  void push(graph::TaskId v, double floor);

  bool empty() const { return entries_.empty(); }

  /// Removes the highest-ranked entry (ties to the lower task id) and
  /// returns it; `row` receives its EFT row over problem.procs().
  graph::TaskId pop(std::vector<double>& row);

 private:
  struct Entry {
    graph::TaskId task;
    std::vector<double> ready;  // floored, by position in problem.procs()
    double key;  // frozen PV, -(push order), or the PV of the last pop
  };

  std::vector<double> eft_row(const Entry& e) const;

  const sim::Problem& problem_;
  const sim::Schedule& schedule_;
  const PvKind pv_;
  const ItqRank rank_;
  const bool insertion_;
  std::vector<Entry> entries_;
  std::size_t pushes_ = 0;
};

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

/// The online failure runtime (core::run_online) left naive: every phase
/// builds a sim::Problem over the surviving processors, replays the
/// committed executions onto a fresh Schedule and drains a ReferenceItq
/// floored at the phase start.
OnlineResult reference_online(const sim::Workload& workload,
                              std::span<const ProcFailure> failures,
                              const HdltsOptions& options = {});

/// The workflow stream (core::run_stream) left naive: each workflow is
/// released in arrival order and drained through a ReferenceItq floored at
/// its arrival. Defined in stream.cpp, where it shares the combined-id-space
/// merge, the busy intervals and the result assembly with StreamHdlts
/// (check::StreamValidator re-checks all three from the arrivals).
StreamResult reference_stream(std::span<const StreamArrival> arrivals,
                              const StreamOptions& options = {},
                              std::span<const BusyInterval> busy = {});

}  // namespace hdlts::core
