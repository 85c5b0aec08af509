// Compiled-layout benchmark: steady-state cost of every scheduler that runs
// on the flat CSR/W sim::CompiledProblem with a scratch arena — two warm-up
// schedule_into() calls, a recycled Schedule, best-of-n — and the heap
// allocations of one steady-state call, counted by the operator-new
// interposer (tests/support/alloc_hook.cpp, linked into this binary only).
// Every scheduler must report ZERO. Also measures the telemetry overhead of
// hdlts: the null-sink (default, compile-time-erased) path vs a full
// RecordingTrace decision stream. Writes BENCH_layout.json so
// scripts/bench.sh has a trajectory to diff against and can gate the
// null-sink cost (HDLTS_NULL_SINK_FACTOR).
//
// Environment knobs:
//   HDLTS_LAYOUT_TASKS  task count           (default 2000)
//   HDLTS_LAYOUT_PROCS  processor count      (default 16)
//   HDLTS_LAYOUT_REPS   timed reps per path  (default 5)
//   HDLTS_LAYOUT_JSON   output path          (default BENCH_layout.json)
//   HDLTS_SEED          workload seed        (default 42)
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/alloc_hook.hpp"

#include "hdlts/core/hdlts.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace {

using namespace hdlts;

/// Every scheduler that runs on the compiled view with a scratch arena.
std::vector<std::string> ported_schedulers() {
  return {"hdlts", "hdlts-static", "hdlts-insertion", "heft", "cpop",
          "peft",  "pets",         "sdbats",          "dls",  "lookahead"};
}

struct Measurement {
  double ms = 0.0;
  std::uint64_t steady_allocs = 0;
};

/// Steady-state timing + heap traffic of one schedule_into() call.
Measurement measure(const sched::Scheduler& scheduler,
                    const sim::Problem& problem, std::size_t reps) {
  Measurement r;
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  scheduler.schedule_into(problem, out);
  scheduler.schedule_into(problem, out);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.schedule_into(problem, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i == 0 || ms < r.ms) r.ms = ms;
  }
  const auto before = tests::alloc_counters();
  scheduler.schedule_into(problem, out);
  const auto after = tests::alloc_counters();
  r.steady_allocs = after.allocations - before.allocations;
  return r;
}

/// Steady-state timing of hdlts with a RecordingTrace sink attached. The
/// trace is cleared (capacity kept) before every call, so each timed call
/// records one full decision stream into warm buffers — the realistic
/// enabled-telemetry regime.
double measure_recording(const sim::Problem& problem, std::size_t reps) {
  core::Hdlts scheduler;
  obs::RecordingTrace trace;
  scheduler.set_trace_sink(&trace);
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  trace.clear();
  scheduler.schedule_into(problem, out);
  trace.clear();
  scheduler.schedule_into(problem, out);
  double best = 0.0;
  for (std::size_t i = 0; i < reps; ++i) {
    trace.clear();
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.schedule_into(problem, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  const auto seed = static_cast<std::uint64_t>(util::env_int("HDLTS_SEED", 42));
  const auto tasks =
      static_cast<std::size_t>(util::env_int("HDLTS_LAYOUT_TASKS", 2000));
  const auto procs =
      static_cast<std::size_t>(util::env_int("HDLTS_LAYOUT_PROCS", 16));
  const auto reps =
      static_cast<std::size_t>(util::env_int("HDLTS_LAYOUT_REPS", 5));
  const std::string json_path =
      util::env_string("HDLTS_LAYOUT_JSON", "BENCH_layout.json");

  workload::RandomDagParams params;
  params.num_tasks = tasks;
  params.costs.num_procs = procs;
  const sim::Workload workload = workload::random_workload(params, seed);
  const sim::Problem problem(workload);

  const sched::Registry registry = core::default_registry();
  util::Table table({"scheduler", "ms", "allocs/call"});
  std::ostringstream rows_json;
  const auto names = ported_schedulers();
  double hdlts_null_sink_ms = 0.0;
  bool failed = false;

  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const auto scheduler = registry.make(name);
    const Measurement m = measure(*scheduler, problem, reps);

    if (m.steady_allocs != 0) {
      std::cerr << "FATAL: " << name << " made " << m.steady_allocs
                << " heap allocations in steady state (contract: 0)\n";
      failed = true;
    }

    if (name == "hdlts") hdlts_null_sink_ms = m.ms;
    table.add_row({name, util::fmt(m.ms, 3), std::to_string(m.steady_allocs)});
    rows_json << "    {\"scheduler\": \"" << name << "\", \"tasks\": " << tasks
              << ", \"procs\": " << procs
              << ", \"compiled_ms\": " << m.ms
              << ", \"compiled_steady_allocs\": " << m.steady_allocs
              << "}" << (i + 1 < names.size() ? ",\n" : "\n");
  }

  // Telemetry overhead: the default path IS the null-sink path (the sink
  // policy is erased at compile time), so its cost is the hdlts cell
  // above; the recording sink is the full-fidelity decision trace.
  const double hdlts_recording_ms = measure_recording(problem, reps);
  const double hdlts_recording_overhead =
      hdlts_null_sink_ms > 0.0 ? hdlts_recording_ms / hdlts_null_sink_ms : 0.0;

  std::cout << "# micro_layout — schedulers on the compiled CSR view ("
            << tasks << " tasks, " << procs << " procs, steady state)\n";
  table.write_markdown(std::cout);
  std::cout << "\nhdlts telemetry: null sink "
            << util::fmt(hdlts_null_sink_ms, 3) << " ms, recording sink "
            << util::fmt(hdlts_recording_ms, 3) << " ms ("
            << util::fmt(hdlts_recording_overhead, 2) << "x)\n";

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"micro_layout\",\n  \"seed\": " << seed
       << ",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n"
       << rows_json.str() << "  ],\n  \"hdlts_null_sink_ms\": "
       << hdlts_null_sink_ms
       << ",\n  \"hdlts_recording_ms\": " << hdlts_recording_ms
       << ",\n  \"hdlts_recording_overhead\": " << hdlts_recording_overhead
       << "\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return failed ? 1 : 0;
}
