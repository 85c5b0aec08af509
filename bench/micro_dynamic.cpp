// Dynamic-path benchmark: what do the compiled zero-alloc online/stream
// paths (CompiledProblem + arena SoA rows + incremental refresh) buy over
// the naive references in core/reference.hpp?
//
// Two scenarios, each measured on both paths in the steady-state regime
// (two warm-up runs, recycled scheduler state, best-of-n):
//   * online — one random DAG under a two-failure fault plan, compiled
//     OnlineHdlts::run_into over a prebuilt sim::Problem vs
//     core::reference_online (which rebuilds a Problem every phase);
//   * stream — several workflows arriving over time, compiled StreamHdlts
//     (combined problem frozen once by compile()) vs core::reference_stream
//     (which recombines and rescans every row and timeline per round).
// The headline number is ns per dynamic decision (one execution placed,
// lost, or duplicated counts as one decision); scripts/bench.sh gates the
// compiled path's online speedup per decision over the reference
// (HDLTS_MIN_DYNAMIC_SPEEDUP).
//
// The operator-new interposer (tests/support/alloc_hook.cpp, linked into
// this binary only) counts heap allocations of one steady-state call per
// path; the compiled paths must report ZERO. Bit-identity
// compiled-vs-reference is asserted on every cell before anything is
// reported.
//
// Environment knobs:
//   HDLTS_DYNAMIC_TASKS            online DAG size          (default 1000)
//   HDLTS_DYNAMIC_PROCS            processor count          (default 8)
//   HDLTS_DYNAMIC_REPS             timed reps per path      (default 5)
//   HDLTS_DYNAMIC_STREAM_WORKFLOWS stream arrival count     (default 4)
//   HDLTS_DYNAMIC_STREAM_TASKS     tasks per stream arrival (default 250)
//   HDLTS_DYNAMIC_JSON             output path   (default BENCH_dynamic.json)
//   HDLTS_SEED                     workload seed            (default 42)
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/alloc_hook.hpp"

#include "hdlts/core/online.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace {

using namespace hdlts;

struct PathResult {
  double ms = 0.0;
  double makespan = 0.0;
  std::size_t decisions = 0;
  std::uint64_t steady_allocs = 0;
};

double elapsed_ms(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Best-of-`reps` steady-state timing + heap traffic of `run`, which must
/// leave its result readable via `decisions`/`makespan` afterwards.
template <typename Run>
PathResult measure(Run&& run, std::size_t reps) {
  PathResult r;
  run();  // warm-up 1: carve arena overflow blocks / grow buffers
  run();  // warm-up 2: fold overflow into the regrown primary buffer
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = elapsed_ms(t0, t1);
    if (i == 0 || ms < r.ms) r.ms = ms;
  }
  const auto before = tests::alloc_counters();
  run();
  const auto after = tests::alloc_counters();
  r.steady_allocs = after.allocations - before.allocations;
  return r;
}

bool identical(const core::OnlineResult& a, const core::OnlineResult& b) {
  if (a.completed != b.completed || a.makespan != b.makespan ||
      a.lost_executions != b.lost_executions ||
      a.executions.size() != b.executions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.executions.size(); ++i) {
    const core::OnlineExec& x = a.executions[i];
    const core::OnlineExec& y = b.executions[i];
    if (x.task != y.task || x.proc != y.proc || x.start != y.start ||
        x.finish != y.finish || x.duplicate != y.duplicate ||
        x.lost != y.lost) {
      return false;
    }
  }
  return true;
}

bool identical(const core::StreamResult& a, const core::StreamResult& b) {
  if (a.makespan != b.makespan || a.finish != b.finish ||
      a.flow_time != b.flow_time ||
      a.executions.size() != b.executions.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.executions.size(); ++i) {
    const core::StreamTaskExec& x = a.executions[i];
    const core::StreamTaskExec& y = b.executions[i];
    if (x.workflow != y.workflow || x.task != y.task || x.proc != y.proc ||
        x.start != y.start || x.finish != y.finish) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const auto seed = static_cast<std::uint64_t>(util::env_int("HDLTS_SEED", 42));
  const auto tasks =
      static_cast<std::size_t>(util::env_int("HDLTS_DYNAMIC_TASKS", 1000));
  const auto procs =
      static_cast<std::size_t>(util::env_int("HDLTS_DYNAMIC_PROCS", 8));
  const auto reps =
      static_cast<std::size_t>(util::env_int("HDLTS_DYNAMIC_REPS", 5));
  const auto stream_workflows = static_cast<std::size_t>(
      util::env_int("HDLTS_DYNAMIC_STREAM_WORKFLOWS", 4));
  const auto stream_tasks = static_cast<std::size_t>(
      util::env_int("HDLTS_DYNAMIC_STREAM_TASKS", 250));
  const std::string json_path =
      util::env_string("HDLTS_DYNAMIC_JSON", "BENCH_dynamic.json");

  bool failed = false;
  util::Table table({"path", "compiled ms", "reference ms", "speedup",
                     "decisions", "ns/decision compiled",
                     "ns/decision reference", "allocs/call compiled",
                     "allocs/call reference"});
  std::ostringstream rows_json;

  // --- Online scenario: 1k-task DAG, two mid-run failures ---
  workload::RandomDagParams params;
  params.num_tasks = tasks;
  params.costs.num_procs = procs;
  const sim::Workload workload = workload::random_workload(params, seed);
  const sim::Problem problem(workload);
  // A clean run sizes the fault plan: kill one processor near the first
  // third and a second near the halfway point, so both the cold phase and
  // two non-trivial re-planning phases land in the timed region.
  const double clean = core::run_online(workload, {}).makespan;
  const std::vector<core::ProcFailure> plan = {
      {static_cast<platform::ProcId>(1), clean / 3.0},
      {static_cast<platform::ProcId>(procs - 1), clean / 2.0}};

  core::OnlineHdlts online;
  core::OnlineResult online_out;
  const PathResult online_compiled = measure(
      [&] { online.run_into(problem, plan, online_out); }, reps);
  core::OnlineResult online_reference_out;
  const PathResult online_reference = measure(
      [&] { online_reference_out = core::reference_online(workload, plan); },
      reps);
  if (!identical(online_out, online_reference_out)) {
    std::cerr << "FATAL: online compiled and reference runs disagree\n";
    failed = true;
  }
  if (online_compiled.steady_allocs != 0) {
    std::cerr << "FATAL: online compiled path made "
              << online_compiled.steady_allocs
              << " heap allocations in steady state (contract: 0)\n";
    failed = true;
  }
  const std::size_t online_decisions = online_out.executions.size();
  const double online_speedup = online_reference.ms / online_compiled.ms;

  // --- Stream scenario: arrivals spread across the first workflow's run ---
  std::vector<sim::Workload> stream_workloads;
  std::vector<core::StreamArrival> arrivals;
  workload::RandomDagParams sparams;
  sparams.num_tasks = stream_tasks;
  sparams.costs.num_procs = procs;
  for (std::size_t w = 0; w < stream_workflows; ++w) {
    stream_workloads.push_back(
        workload::random_workload(sparams, seed + w + 1));
  }
  std::vector<core::StreamArrival> probe;
  probe.push_back({stream_workloads[0], 0.0});
  const double solo = core::run_stream(probe).makespan;
  for (std::size_t w = 0; w < stream_workflows; ++w) {
    arrivals.push_back({stream_workloads[w],
                        solo * static_cast<double>(w) /
                            static_cast<double>(stream_workflows)});
  }

  core::StreamHdlts stream;
  stream.compile(arrivals);
  core::StreamResult stream_out;
  const PathResult stream_compiled =
      measure([&] { stream.run_into(stream_out); }, reps);
  core::StreamResult stream_reference_out;
  const PathResult stream_reference = measure(
      [&] { stream_reference_out = core::reference_stream(arrivals); }, reps);
  if (!identical(stream_out, stream_reference_out)) {
    std::cerr << "FATAL: stream compiled and reference runs disagree\n";
    failed = true;
  }
  if (stream_compiled.steady_allocs != 0) {
    std::cerr << "FATAL: stream compiled path made "
              << stream_compiled.steady_allocs
              << " heap allocations in steady state (contract: 0)\n";
    failed = true;
  }
  const std::size_t stream_decisions = stream_out.executions.size();
  const double stream_speedup = stream_reference.ms / stream_compiled.ms;

  const auto ns_per_decision = [](double ms, std::size_t decisions) {
    return decisions == 0 ? 0.0
                          : ms * 1e6 / static_cast<double>(decisions);
  };
  const auto add = [&](const char* name, const PathResult& compiled,
                       const PathResult& reference, std::size_t decisions,
                       double speedup, bool last) {
    table.add_row({name, util::fmt(compiled.ms, 3),
                   util::fmt(reference.ms, 3), util::fmt(speedup, 2),
                   std::to_string(decisions),
                   util::fmt(ns_per_decision(compiled.ms, decisions), 1),
                   util::fmt(ns_per_decision(reference.ms, decisions), 1),
                   std::to_string(compiled.steady_allocs),
                   std::to_string(reference.steady_allocs)});
    rows_json << "    {\"path\": \"" << name << "\", \"tasks\": "
              << (std::string(name) == "online"
                      ? tasks
                      : stream_workflows * stream_tasks)
              << ", \"procs\": " << procs
              << ", \"compiled_ms\": " << compiled.ms
              << ", \"reference_ms\": " << reference.ms
              << ", \"speedup\": " << speedup
              << ", \"decisions\": " << decisions
              << ", \"ns_per_decision_compiled\": "
              << ns_per_decision(compiled.ms, decisions)
              << ", \"ns_per_decision_reference\": "
              << ns_per_decision(reference.ms, decisions)
              << ", \"compiled_steady_allocs\": " << compiled.steady_allocs
              << ", \"reference_steady_allocs\": "
              << reference.steady_allocs << "}" << (last ? "\n" : ",\n");
  };
  add("online", online_compiled, online_reference, online_decisions,
      online_speedup, false);
  add("stream", stream_compiled, stream_reference, stream_decisions,
      stream_speedup, true);

  std::cout << "# micro_dynamic — compiled vs reference dynamic paths "
               "(online: "
            << tasks << " tasks / " << procs << " procs / "
            << plan.size() << " failures; stream: " << stream_workflows
            << " x " << stream_tasks << " tasks)\n";
  table.write_markdown(std::cout);
  std::cout << "\nonline dynamic speedup: " << util::fmt(online_speedup, 2)
            << "x  (" << util::fmt(ns_per_decision(online_compiled.ms,
                                                   online_decisions),
                                   1)
            << " ns/decision compiled)\n"
            << "stream dynamic speedup: " << util::fmt(stream_speedup, 2)
            << "x\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"micro_dynamic\",\n  \"seed\": " << seed
       << ",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n"
       << rows_json.str() << "  ],\n  \"online_dynamic_speedup\": "
       << online_speedup
       << ",\n  \"stream_dynamic_speedup\": " << stream_speedup << "\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return failed ? 1 : 0;
}
