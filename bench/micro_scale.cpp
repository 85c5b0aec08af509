// Wall-clock scaling benchmark for the scheduler hot loops: layered random
// DAGs of 1k/5k/10k tasks on 8/32 processors, every list scheduler that is
// expected to scale, HDLTS with a recording decision-trace sink (telemetry
// overhead), plus the brute-force reference HDLTS (the pre-incremental
// implementation) so the incremental-state speedup and the tracing overhead
// are both measured in the same binary. Prints an aligned table and writes
// BENCH_sched_scale.json (ms, tasks/sec, ns/decision per cell and the
// headline hdlts speedup on the 5k/32 cell) so future PRs have a perf
// trajectory to diff against (scripts/bench.sh).
//
// Methodology: steady state. Each cell is best-of-n schedule_into() calls
// into a recycled Schedule after two untimed warm-up calls, so the scratch
// arena is at capacity and the numbers measure the hot loop, not first-call
// allocation and page faults — the regime metrics::run_repetitions runs in.
// The brute-force reference is timed cold (it has no reusable state).
//
// Environment knobs:
//   HDLTS_SCALE_TASKS    comma list of task counts   (default 1000,5000,10000)
//   HDLTS_SCALE_PROCS    comma list of proc counts   (default 8,32)
//   HDLTS_SCALE_REF_MAX  largest task count the O(V^2*P*V) reference runs on
//                        (default 5000; it exists to measure the speedup, not
//                        to wait on)
//   HDLTS_SCALE_JSON     output path (default BENCH_sched_scale.json)
//   HDLTS_SEED           workload seed (default 42)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace {

using namespace hdlts;

struct Row {
  std::size_t tasks = 0;
  std::size_t procs = 0;
  std::string scheduler;
  double ms = 0.0;
  double makespan = 0.0;
};

std::vector<std::size_t> env_sizes(const char* name,
                                   std::vector<std::size_t> fallback) {
  const std::string raw = util::env_string(name, "");
  if (raw.empty()) return fallback;
  std::vector<std::size_t> out;
  std::stringstream ss(raw);
  std::string item;
  while (std::getline(ss, item, ',')) {
    // Same policy as util::env_int: ignore unparseable values.
    char* end = nullptr;
    const long v = std::strtol(item.c_str(), &end, 10);
    if (end != item.c_str() && *end == '\0' && v > 0) {
      out.push_back(static_cast<std::size_t>(v));
    }
  }
  return out.empty() ? fallback : out;
}

/// Schedulers with near-linear hot loops; the quadratic-in-V batch/search
/// baselines (dls, minmin, genetic, ...) are out of scope for a 10k sweep.
std::vector<std::string> scale_schedulers() {
  return {"hdlts",  "hdlts-static", "hdlts-insertion", "heft",
          "peft",   "cpop",         "sdbats",          "pets"};
}

/// One cold schedule() call — used for the stateless brute-force reference.
double time_one(const sched::Scheduler& scheduler, const sim::Problem& problem,
                double* makespan) {
  const auto t0 = std::chrono::steady_clock::now();
  const sim::Schedule schedule = scheduler.schedule(problem);
  const auto t1 = std::chrono::steady_clock::now();
  *makespan = schedule.makespan();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Steady-state best-of-n: two untimed warm-ups fill the scratch arena and
/// the recycled Schedule's capacities, then n timed schedule_into() calls;
/// n shrinks with problem size so the sweep stays short. When `trace` is
/// set it is cleared (capacity kept) before every call so each timed call
/// records one full decision stream into warm buffers.
double time_scheduler(const sched::Scheduler& scheduler,
                      const sim::Problem& problem, std::size_t tasks,
                      double* makespan, obs::RecordingTrace* trace = nullptr) {
  const std::size_t reps = tasks <= 1000 ? 5 : (tasks <= 5000 ? 3 : 2);
  sim::Schedule out(problem.num_tasks(), problem.num_procs());
  if (trace != nullptr) trace->clear();
  scheduler.schedule_into(problem, out);
  if (trace != nullptr) trace->clear();
  scheduler.schedule_into(problem, out);
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    if (trace != nullptr) trace->clear();
    const auto t0 = std::chrono::steady_clock::now();
    scheduler.schedule_into(problem, out);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  *makespan = out.makespan();
  return best;
}

std::string json_row(const Row& row) {
  std::ostringstream os;
  const double secs = row.ms / 1000.0;
  const double tasks_per_sec = static_cast<double>(row.tasks) / secs;
  const double ns_per_decision =
      row.ms * 1e6 / static_cast<double>(row.tasks);
  os << "    {\"tasks\": " << row.tasks << ", \"procs\": " << row.procs
     << ", \"scheduler\": \"" << row.scheduler << "\", \"ms\": " << row.ms
     << ", \"tasks_per_sec\": " << tasks_per_sec
     << ", \"ns_per_decision\": " << ns_per_decision << "}";
  return os.str();
}

}  // namespace

int main() {
  const auto seed = static_cast<std::uint64_t>(util::env_int("HDLTS_SEED", 42));
  const auto sizes = env_sizes("HDLTS_SCALE_TASKS", {1000, 5000, 10000});
  const auto procs = env_sizes("HDLTS_SCALE_PROCS", {8, 32});
  const auto ref_max = static_cast<std::size_t>(
      util::env_int("HDLTS_SCALE_REF_MAX", 5000));
  const std::string json_path =
      util::env_string("HDLTS_SCALE_JSON", "BENCH_sched_scale.json");

  const sched::Registry registry = core::default_registry();
  const core::ReferenceHdlts reference;

  util::Table table({"tasks", "procs", "scheduler", "ms", "tasks/sec",
                     "ns/decision"});
  std::vector<Row> rows;
  // ms of ("hdlts" | "hdlts-reference" | "hdlts-recording") on the headline
  // 5k/32 cell.
  double headline_opt = 0.0;
  double headline_ref = 0.0;
  double headline_recording = 0.0;

  for (const std::size_t nt : sizes) {
    for (const std::size_t np : procs) {
      workload::RandomDagParams params;
      params.num_tasks = nt;
      params.costs.num_procs = np;
      const sim::Workload workload = workload::random_workload(params, seed);
      const sim::Problem problem(workload);

      auto record = [&](const std::string& name, double ms, double makespan) {
        rows.push_back({nt, np, name, ms, makespan});
        const Row& row = rows.back();
        table.add_row({std::to_string(nt), std::to_string(np), name,
                       util::fmt(ms, 2),
                       util::fmt(static_cast<double>(nt) / (ms / 1000.0), 0),
                       util::fmt(ms * 1e6 / static_cast<double>(nt), 0)});
        return row.ms;
      };

      double opt_makespan = 0.0;
      for (const std::string& name : scale_schedulers()) {
        const auto scheduler = registry.make(name);
        double makespan = 0.0;
        const double ms = time_scheduler(*scheduler, problem, nt, &makespan);
        record(name, ms, makespan);
        if (name == "hdlts") {
          opt_makespan = makespan;
          if (nt == 5000 && np == 32) headline_opt = ms;
        }
      }
      {
        // Telemetry enabled: the same compiled hot loop with a
        // RecordingTrace sink capturing every decision. The gap to the
        // "hdlts" (null sink) row is the full-fidelity tracing overhead.
        core::Hdlts recording_hdlts;
        obs::RecordingTrace trace;
        recording_hdlts.set_trace_sink(&trace);
        double recording_makespan = 0.0;
        const double ms = time_scheduler(recording_hdlts, problem, nt,
                                         &recording_makespan, &trace);
        record("hdlts-recording", ms, recording_makespan);
        if (nt == 5000 && np == 32) headline_recording = ms;
        if (recording_makespan != opt_makespan) {
          std::cerr << "FATAL: hdlts with a recording sink ("
                    << recording_makespan << ") and the null-sink path ("
                    << opt_makespan
                    << ") disagree on " << nt << " tasks / " << np
                    << " procs\n";
          return 1;
        }
      }
      if (nt <= ref_max) {
        double ref_makespan = 0.0;
        const double ms = time_one(reference, problem, &ref_makespan);
        record("hdlts-reference", ms, ref_makespan);
        if (nt == 5000 && np == 32) headline_ref = ms;
        if (ref_makespan != opt_makespan) {
          std::cerr << "FATAL: incremental hdlts (" << opt_makespan
                    << ") and reference (" << ref_makespan
                    << ") disagree on " << nt << " tasks / " << np
                    << " procs\n";
          return 1;
        }
      }
    }
  }

  std::cout << "# micro_scale — scheduler wall clock on layered random DAGs\n";
  table.write_markdown(std::cout);
  if (headline_ref > 0.0 && headline_opt > 0.0) {
    std::cout << "\nhdlts incremental speedup (5k tasks, 32 procs): "
              << util::fmt(headline_ref / headline_opt, 1) << "x\n";
  }
  if (headline_recording > 0.0 && headline_opt > 0.0) {
    std::cout << "hdlts recording-sink overhead (5k tasks, 32 procs): "
              << util::fmt(headline_recording / headline_opt, 2) << "x\n";
  }

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"micro_scale\",\n  \"seed\": " << seed
       << ",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << json_row(rows[i]) << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "  ]";
  if (headline_ref > 0.0 && headline_opt > 0.0) {
    json << ",\n  \"hdlts_speedup_5k_32\": " << headline_ref / headline_opt;
  }
  if (headline_recording > 0.0 && headline_opt > 0.0) {
    json << ",\n  \"hdlts_recording_overhead_5k_32\": "
         << headline_recording / headline_opt;
  }
  json << "\n}\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
