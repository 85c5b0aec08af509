// Shared types of the serve benchmark: the workload definitions and their
// seeded request lists, the span recorder of the traced run, and the direct
// library path that serves as both the correctness oracle and the traced
// per-layer replay. servebench/README.md explains the design.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/net/protocol.hpp"
#include "hdlts/sched/registry.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/sim/schedule.hpp"

namespace servebench {

namespace core = hdlts::core;
namespace net = hdlts::net;
namespace sched = hdlts::sched;
namespace sim = hdlts::sim;
namespace svc = hdlts::svc;
namespace util = hdlts::util;

// ---------------------------------------------------------------------------
// Workloads and request lists (requests.cpp)
// ---------------------------------------------------------------------------

struct WorkloadDef {
  std::string_view name;
  /// Requests kept in flight on the one connection (closed loop).
  std::size_t outstanding = 1;
  /// Leading requests of the list used only to warm up during set-up.
  std::size_t warmup = 0;
  /// Timed requests per second of --seconds. A fixed constant, so the list
  /// length depends only on --seconds and never on how fast the host is.
  std::size_t requests_per_second = 0;
  /// The traced run replays this many timed requests (a prefix of the
  /// timed list), which keeps its span log and run time bounded.
  std::size_t trace_requests = 0;
};

/// Null when `name` is not a workload.
const WorkloadDef* find_workload(std::string_view name);

enum class Kind { kStatic, kOnline, kStream };

/// One generated workflow of a request: the wire generator spec and the
/// seed it is materialised with.
struct GeneratedWorkflow {
  net::GeneratorSpec spec;
  std::uint64_t seed = 0;
};

struct Request {
  Kind kind = Kind::kStatic;
  /// The submit frame as sent, without the trailing newline.
  std::string frame;
  /// Stream requests: one entry per arrival. net::parse_request generates
  /// arrivals inside the parse, so the traced run re-generates them from
  /// here to time generation apart from parsing.
  std::vector<GeneratedWorkflow> arrivals;
};

/// The workload's request list: `def.warmup` warm-up requests, the same for
/// every seed, followed by `timed` requests drawn from `seed`. Request i
/// carries wire id i, and no two workflows in one list share a (generator,
/// seed) pair.
std::vector<Request> make_requests(const WorkloadDef& def, std::uint64_t seed,
                                   std::size_t timed);

// ---------------------------------------------------------------------------
// Spans of the traced run
// ---------------------------------------------------------------------------

/// In-memory span log. Each span records the layer call it wraps, the
/// request it belongs to, its parent span and the output lane it is drawn
/// in; times are microseconds since the tracer was created.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t request = 0;
    std::int32_t parent = -1;
    int lane = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    double duration_us() const { return end_us - start_us; }
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// The lane of the spans recorded from now on.
  void set_lane(int lane) { lane_ = lane; }

  std::int32_t begin(const char* name, std::uint32_t request,
                     std::int32_t parent) {
    spans_.push_back({name, request, parent, lane_, now_us(), 0.0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t span) {
    spans_[static_cast<std::size_t>(span)].end_us = now_us();
  }
  /// Adds a root span timed elsewhere (e.g. ended on another thread).
  void record(const char* name, std::uint32_t request,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end) {
    spans_.push_back({name, request, -1, lane_, us_since_origin(start),
                      us_since_origin(end)});
  }

  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  double now_us() const {
    return us_since_origin(std::chrono::steady_clock::now());
  }
  double us_since_origin(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  std::chrono::steady_clock::time_point origin_;
  int lane_ = 0;
  std::vector<Span> spans_;
};

/// RAII span; records nothing when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t request,
             std::int32_t parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------------
// Direct library path (direct.cpp)
// ---------------------------------------------------------------------------

/// What one direct run of a request produced.
struct DirectOutcome {
  /// The rendered response frame, without the trailing newline: what the
  /// server must send byte for byte.
  std::string response;
  /// HDLTS makespan over the min-cost critical path (stream: mean over the
  /// workflows of flow time over the workflow's own critical path). Only
  /// computed when asked for.
  double slr = 0.0;
  std::size_t tasks = 0;  ///< summed over the request's workflows
  std::size_t edges = 0;
  std::size_t decisions = 0;  ///< placements made by the scheduler calls
  std::size_t executions = 0;       ///< online
  std::size_t lost_executions = 0;  ///< online
  /// Makespans, in the order the server's engine reports them (static: one
  /// per scheduler; online/stream: one).
  std::vector<double> makespans;
};

/// Runs requests through the library calls the server makes — parse,
/// generate, build the problem, schedule, render — on the calling thread,
/// with recycled scheduler instances like an engine worker. With a tracer,
/// each call is wrapped in a span.
class DirectRunner {
 public:
  explicit DirectRunner(const sched::Registry& registry);

  void run(const Request& request, std::uint32_t index, Tracer* tracer,
           bool want_slr, DirectOutcome& out);

 private:
  struct CachedScheduler {
    sched::SchedulerPtr scheduler;
    std::string span_name;  ///< "sched.<name>"; stable for the runner's life
  };

  CachedScheduler& scheduler(const std::string& name);

  const sched::Registry& registry_;
  net::Limits limits_;
  std::map<std::string, CachedScheduler, std::less<>> schedulers_;
  std::optional<sim::Workload> workload_;
  std::optional<sim::Problem> problem_;
  sim::Schedule schedule_{0, 1};
  core::OnlineHdlts online_;
  core::OnlineResult online_result_;
  std::optional<core::StreamHdlts> stream_;
  core::StreamResult stream_result_;
  std::vector<std::string> entries_;
};

// ---------------------------------------------------------------------------
// Runs (measure.cpp, traced.cpp)
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;  ///< in output order
  /// Run conditions and diagnostics, printed next to the metrics.
  std::vector<std::pair<std::string, std::string>> notes;
};

/// The untraced measured run: set-up, the timed closed loop, then the
/// byte-for-byte check against direct runs.
RunResult run_measured(const WorkloadDef& def,
                       const std::vector<Request>& requests);

/// The traced run: direct replay with and without spans, a one-worker
/// BatchEngine pass and a server pass at one outstanding request.
/// `spans_out` (may be empty) receives the spans as Chrome trace JSON.
RunResult run_traced(const WorkloadDef& def,
                     const std::vector<Request>& requests,
                     const std::string& spans_out);

// ---------------------------------------------------------------------------
// Helpers shared by the runs (measure.cpp)
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Value of a "Key:   N kB"-style line of /proc/self/status (0 if absent).
std::uint64_t proc_status_value(std::string_view key);

/// Host-wide CPU time counters (ticks) from the first line of /proc/stat:
/// all time, and the time the hypervisor ran something else while this
/// guest's CPUs wanted to run (steal).
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
HostTicks read_host_ticks();

double seconds_between(Clock::time_point t0, Clock::time_point t1);

}  // namespace servebench
