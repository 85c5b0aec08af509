// Per-decision trace sink: the structured-event interface the schedulers
// emit into (sched::Scheduler::set_trace_sink).
//
// Event vocabulary (one HDLTS run, mirroring the paper's Table I):
//   on_begin        scheduler name + problem shape
//   on_step         ITQ snapshot (tasks + PVs), the selected task, its
//                   per-CPU EFT candidate row, and the chosen processor
//   on_duplication  one Algorithm-1 candidate: duplicate finish vs the
//                   earliest networked arrival at any child, the benefiting
//                   child count, and the accept/reject verdict
//   on_placement    a committed block (primary or duplicate)
//   on_note         generic scalar event (online failures, stream arrivals)
//   on_end          makespan + high-water marks (peak ITQ width, scratch
//                   arena bytes)
// List baselines without an ITQ emit on_step with empty ITQ spans.
//
// Spans handed to on_step point into scheduler-internal storage and are only
// valid for the duration of the call — sinks that retain events must copy
// (RecordingTrace does).
//
// The hot compiled path is a template over a compile-time sink policy
// (NullSink / SinkRef below): with NullSink every telemetry block is removed
// by `if constexpr`, so a scheduler without a sink attached runs the exact
// pre-telemetry instruction stream — zero-allocation steady state and
// bit-identical schedules (tests/alloc_test.cpp, tests/obs_test.cpp).
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hdlts/graph/task_graph.hpp"
#include "hdlts/platform/platform.hpp"

namespace hdlts::sim {
class Schedule;
}

namespace hdlts::obs {

struct ScheduleBeginEvent {
  std::string_view scheduler;
  std::size_t num_tasks = 0;
  std::size_t num_procs = 0;
};

struct StepEvent {
  std::size_t step = 0;  ///< 0-based decision index
  /// ITQ snapshot at selection time, queue order (unsorted), PVs parallel.
  std::span<const graph::TaskId> itq_tasks;
  std::span<const double> itq_pv;
  graph::TaskId selected = graph::kInvalidTask;
  /// EFT candidates of `selected` per alive processor (problem.procs()
  /// order) — the row whose argmin is the chosen processor.
  std::span<const double> eft;
  platform::ProcId chosen = platform::kInvalidProc;
  double start = 0.0;   ///< committed start on `chosen`
  double finish = 0.0;  ///< committed finish (the winning EFT)
};

/// One Algorithm-1 duplication candidate and its verdict. The comparison the
/// paper writes as "EFT(dup) < AFT(v) + comm" is recorded term by term.
struct DuplicationEvent {
  graph::TaskId task = graph::kInvalidTask;
  platform::ProcId primary_proc = platform::kInvalidProc;
  platform::ProcId candidate_proc = platform::kInvalidProc;
  double dup_start = 0.0;
  double dup_finish = 0.0;
  /// Earliest networked arrival of the task's output at any child were the
  /// duplicate absent (min over children of AFT + comm).
  double best_arrival = 0.0;
  std::size_t benefits = 0;      ///< children with dup_finish < their arrival
  std::size_t num_children = 0;
  bool accepted = false;
};

struct PlacementEvent {
  graph::TaskId task = graph::kInvalidTask;
  platform::ProcId proc = platform::kInvalidProc;
  double start = 0.0;
  double finish = 0.0;
  bool duplicate = false;
};

struct ScheduleEndEvent {
  double makespan = 0.0;
  std::size_t steps = 0;
  std::size_t itq_high_water = 0;  ///< peak ITQ width (0 for non-ITQ)
  std::size_t arena_bytes = 0;     ///< scratch-arena bytes carved this call
  std::size_t duplicates = 0;      ///< duplicate placements committed
};

class DecisionTrace {
 public:
  virtual ~DecisionTrace() = default;
  virtual void on_begin(const ScheduleBeginEvent&) {}
  virtual void on_step(const StepEvent&) {}
  virtual void on_duplication(const DuplicationEvent&) {}
  virtual void on_placement(const PlacementEvent&) {}
  virtual void on_note(std::string_view /*kind*/, double /*value*/) {}
  virtual void on_end(const ScheduleEndEvent&) {}
};

/// Compile-time sink policies for the templated hot loops. Call sites guard
/// every telemetry block with `if constexpr (Sink::kEnabled)`.
struct NullSink {
  static constexpr bool kEnabled = false;
  /// Never called (removed by if constexpr); present so unguarded cold-path
  /// helpers can take either policy.
  DecisionTrace* operator->() const { return nullptr; }
};

struct SinkRef {
  static constexpr bool kEnabled = true;
  DecisionTrace* sink = nullptr;
  DecisionTrace* operator->() const { return sink; }
};

/// An in-memory sink that copies every event. Thread-safe (one mutex), so it
/// can be shared across metrics::run_repetitions workers; an enabled
/// recording sink is allowed to allocate (reserve() pre-sizes the buffers).
class RecordingTrace final : public DecisionTrace {
 public:
  struct StepRecord {
    std::size_t step = 0;
    std::vector<graph::TaskId> itq_tasks;
    std::vector<double> itq_pv;
    graph::TaskId selected = graph::kInvalidTask;
    std::vector<double> eft;
    platform::ProcId chosen = platform::kInvalidProc;
    double start = 0.0;
    double finish = 0.0;
  };
  struct NoteRecord {
    std::string kind;
    double value = 0.0;
  };

  void on_begin(const ScheduleBeginEvent& ev) override;
  void on_step(const StepEvent& ev) override;
  void on_duplication(const DuplicationEvent& ev) override;
  void on_placement(const PlacementEvent& ev) override;
  void on_note(std::string_view kind, double value) override;
  void on_end(const ScheduleEndEvent& ev) override;

  /// Pre-sizes the event buffers (e.g. to the task count).
  void reserve(std::size_t steps_hint);
  void clear();

  // Accessors racy only against concurrent emission; read after the run.
  std::string scheduler() const;
  std::size_t num_tasks() const;
  std::size_t num_procs() const;
  const std::vector<StepRecord>& steps() const { return steps_; }
  const std::vector<DuplicationEvent>& duplications() const {
    return duplications_;
  }
  const std::vector<PlacementEvent>& placements() const { return placements_; }
  const std::vector<NoteRecord>& notes() const { return notes_; }
  bool has_end() const { return has_end_; }
  const ScheduleEndEvent& end() const { return end_; }

 private:
  mutable std::mutex mu_;
  std::string scheduler_;
  std::size_t num_tasks_ = 0;
  std::size_t num_procs_ = 0;
  std::vector<StepRecord> steps_;
  std::vector<DuplicationEvent> duplications_;
  std::vector<PlacementEvent> placements_;
  std::vector<NoteRecord> notes_;
  ScheduleEndEvent end_;
  bool has_end_ = false;
};

/// `step` with its ITQ snapshot (tasks and their PVs) sorted by ascending
/// task id — the order the paper's Table I prints; sinks receive the
/// snapshot in queue order.
RecordingTrace::StepRecord itq_in_task_order(RecordingTrace::StepRecord step);

/// Replays a finished schedule into `sink` as begin/placement/end events —
/// the one-line instrumentation hook for baselines whose inner loops are not
/// worth threading a sink through. Placements are emitted in per-processor
/// timeline order. No-op when sink is null.
void emit_schedule(DecisionTrace* sink, std::string_view scheduler,
                   const sim::Schedule& schedule);

}  // namespace hdlts::obs
