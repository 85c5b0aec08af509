// Dynamic application workflows (the paper's §VI second future-work item):
// a stream of workflows arriving over time on a shared heterogeneous
// platform, scheduled online.
//
// Model: the scheduler is not clairvoyant — a workflow is invisible before
// its arrival. Between arrivals the scheduler eagerly assigns every
// currently-independent task exactly as HDLTS does (Algorithm 2), with each
// task's EST floored at its workflow's arrival time; when a new workflow
// arrives its source tasks join the ITQ and priorities are recomputed.
// Assignments are non-preemptive and never revoked (contrast with the
// failure path in hdlts/core/online.hpp, which does revoke).
//
// Workflows are released in arrival order; equal arrival times release in
// list order, each workflow's ready tasks drained before the next is
// released.
//
// StreamHdlts (behind run_stream) merges the arrivals once into a combined
// CSR sim::CompiledProblem (the combiner reserves exact task/edge counts)
// and schedules it through core::ItqEngine, the ITQ static HDLTS runs on,
// with each task's EST floored at its workflow's arrival; once frozen,
// repeated run_into() calls perform zero heap allocations. It is
// differential-tested bit for bit (tests/stream_test.cpp,
// tests/dst_test.cpp) against core::reference_stream (core/reference.hpp),
// which drains the naive core::ReferenceItq.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/sim/schedule.hpp"
#include "hdlts/util/arena.hpp"

namespace hdlts::obs {
class DecisionTrace;
}

namespace hdlts::core {

namespace detail {
struct FrozenStream;  // the merged combined-id-space workload (stream.cpp)
}

/// QoS class of a workflow's deadline (arXiv 2506.12415's soft/hard split).
/// Accounting only — the non-clairvoyant stream scheduler never revokes
/// work, so a hard miss is reported, not prevented.
enum class DeadlineKind {
  kSoft,  ///< a miss degrades quality of service
  kHard,  ///< a miss is a correctness event (counted separately)
};

/// One workflow in the stream. Workloads must all target a platform with
/// the same processor count; the stream runs on the platform of the first
/// arrival (bandwidths of later platforms are ignored).
struct StreamArrival {
  sim::Workload workload;
  double arrival = 0.0;
  /// Absolute completion deadline; +infinity (the default) means none.
  double deadline = std::numeric_limits<double>::infinity();
  DeadlineKind deadline_kind = DeadlineKind::kSoft;
};

/// A pre-occupied interval on one processor: background load that exists
/// before the stream starts (the platform is not idle at time zero). The
/// Schedule respects these at init — no task may overlap one.
struct BusyInterval {
  platform::ProcId proc = platform::kInvalidProc;
  double start = 0.0;
  double finish = 0.0;
};

/// Which priority rule drives the shared ITQ.
enum class StreamPolicy {
  kHdltsPv,  ///< penalty value (sample stddev of EFTs) — the paper's rule
  kFifoEft,  ///< first-come-first-served among ready tasks, min-EFT CPU
};

struct StreamTaskExec {
  std::size_t workflow = 0;       ///< index into the arrival list
  graph::TaskId task = 0;         ///< task id *within* that workflow
  platform::ProcId proc = platform::kInvalidProc;
  double start = 0.0;
  double finish = 0.0;
};

struct StreamResult {
  std::vector<StreamTaskExec> executions;
  /// Completion time of each workflow (absolute).
  std::vector<double> finish;
  /// Flow time of each workflow: finish - arrival.
  std::vector<double> flow_time;
  /// Per workflow: 1 when finish exceeds the arrival's deadline.
  std::vector<unsigned char> deadline_missed;
  /// Count of missed deadlines (soft + hard) and the hard subset.
  std::size_t deadline_misses = 0;
  std::size_t hard_deadline_misses = 0;
  /// Completion of the whole stream.
  double makespan = 0.0;
};

struct StreamOptions {
  StreamPolicy policy = StreamPolicy::kHdltsPv;
  PvKind pv = PvKind::kSampleStddev;
};

/// Reusable stream scheduler. compile() freezes an arrival set into one
/// combined CSR problem (this step allocates); run_into() then schedules
/// the frozen stream with arena-backed state — with a warm arena and a
/// recycled result, a steady-state call performs zero heap allocations
/// (tests/alloc_test.cpp: StreamCompiledSteadyState).
class StreamHdlts {
 public:
  explicit StreamHdlts(StreamOptions options = {});
  ~StreamHdlts();
  StreamHdlts(StreamHdlts&&) noexcept;
  StreamHdlts& operator=(StreamHdlts&&) noexcept;

  const StreamOptions& options() const { return options_; }

  /// Validates the arrivals and freezes them into the combined problem.
  /// `busy` (optional) pins pre-occupied processor intervals that every
  /// subsequent run_into() re-applies to the Schedule at init. Throws
  /// InvalidArgument exactly where run_stream would.
  void compile(std::span<const StreamArrival> arrivals,
               std::span<const BusyInterval> busy = {});
  bool compiled() const { return problem_.has_value(); }
  /// The frozen combined workload (requires compiled()).
  const sim::Workload& combined() const;

  /// Schedules the frozen stream (requires compiled()). Zero-allocation in
  /// steady state with a null sink.
  void run_into(StreamResult& out, obs::DecisionTrace* sink = nullptr);

  /// compile() + run_into().
  StreamResult run(std::span<const StreamArrival> arrivals,
                   obs::DecisionTrace* sink = nullptr,
                   std::span<const BusyInterval> busy = {});

 private:
  StreamOptions options_;
  std::unique_ptr<detail::FrozenStream> frozen_;
  std::optional<sim::Problem> problem_;
  util::ScratchArena arena_;
  sim::Schedule schedule_{0, 1};
};

/// Runs the stream to completion. Throws InvalidArgument on inconsistent
/// processor counts or an empty stream. `sink` (optional) receives a note
/// per workflow arrival, every execution as a placement (in the combined id
/// space), and an end event with the stream makespan; exported through
/// obs::write_chrome_trace this reconstructs the per-processor lanes even
/// though no sim::Schedule is returned. Compiled fast path; bit-identical
/// to core::reference_stream.
StreamResult run_stream(std::span<const StreamArrival> arrivals,
                        const StreamOptions& options = {},
                        obs::DecisionTrace* sink = nullptr,
                        std::span<const BusyInterval> busy = {});

}  // namespace hdlts::core
