// Batch-throughput benchmark: how many independent scheduling requests per
// second does svc::BatchEngine sustain as the worker count grows? Runs the
// same request set (distinct random 1k-task/16-proc problems × a scheduler
// list) through one engine per thread count, best-of-n passes, and checks
// every pass against a serially computed reference — the engine's
// determinism contract means the makespans must match bit-for-bit at every
// thread count. The engine is constructed once per thread count and an
// untimed warm-up pass runs through it first, so the timed region measures
// steady-state submit->drain throughput only — no thread spawn/join, no
// cold scheduler caches or arena growth. Writes BENCH_batch.json so
// scripts/bench.sh can diff the throughput trajectory and gate the scaling
// bar (>=3x at the widest thread count vs 1) on hosts that actually have
// the cores; `hardware_concurrency` is recorded so the gate can tell. On a
// 1-core container the widest row still runs (the determinism check is as
// strong) but the speedup is meaningless and the gate skips it.
//
// Environment knobs:
//   HDLTS_BATCH_TASKS       tasks per problem            (default 1000)
//   HDLTS_BATCH_PROCS      processors per problem        (default 16)
//   HDLTS_BATCH_REQUESTS   requests per pass             (default 48)
//   HDLTS_BATCH_THREADS    comma list of worker counts   (default 1,2,4,8)
//   HDLTS_BATCH_SCHEDULERS comma list per request        (default hdlts)
//   HDLTS_BATCH_REPS       timed passes per thread count (default 3)
//   HDLTS_BATCH_QUEUE      submission queue capacity     (default 64)
//   HDLTS_BATCH_JSON       output path (default BENCH_batch.json)
//   HDLTS_SEED             base workload seed            (default 42)
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace {

using namespace hdlts;

std::vector<std::string> env_names(const char* name,
                                   std::vector<std::string> fallback) {
  const std::string raw = util::env_string(name, "");
  if (raw.empty()) return fallback;
  std::vector<std::string> out;
  std::istringstream stream(raw);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out.empty() ? fallback : out;
}

std::vector<std::size_t> env_sizes(const char* name,
                                   std::vector<std::size_t> fallback) {
  std::vector<std::size_t> out;
  for (const std::string& token : env_names(name, {})) {
    // Same policy as util::env_int: ignore unparseable values.
    char* end = nullptr;
    const long value = std::strtol(token.c_str(), &end, 10);
    if (end != token.c_str() && *end == '\0' && value > 0) {
      out.push_back(static_cast<std::size_t>(value));
    }
  }
  return out.empty() ? fallback : out;
}

/// One timed pass through an already-running engine: submit every request,
/// wait for the queue to drain, return wall milliseconds. Engine
/// construction/shutdown (thread spawn and join) stays outside the timing.
/// `makespans` (id-major, scheduler-minor) is overwritten with the results
/// so the caller can compare passes bit-for-bit.
double run_pass(svc::BatchEngine& engine,
                const std::vector<sim::Problem>& problems,
                const std::vector<std::string>& schedulers,
                std::vector<double>& makespans) {
  makespans.assign(problems.size() * schedulers.size(), -1.0);
  const auto t0 = std::chrono::steady_clock::now();
  svc::BatchRequest request;
  request.schedulers = schedulers;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    request.id = i;
    request.problem = &problems[i];
    engine.submit(request);
  }
  engine.wait_idle();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  const auto seed = static_cast<std::uint64_t>(util::env_int("HDLTS_SEED", 42));
  const auto tasks =
      static_cast<std::size_t>(util::env_int("HDLTS_BATCH_TASKS", 1000));
  const auto procs =
      static_cast<std::size_t>(util::env_int("HDLTS_BATCH_PROCS", 16));
  const auto requests =
      static_cast<std::size_t>(util::env_int("HDLTS_BATCH_REQUESTS", 48));
  const auto reps =
      static_cast<std::size_t>(util::env_int("HDLTS_BATCH_REPS", 3));
  const auto queue_capacity =
      static_cast<std::size_t>(util::env_int("HDLTS_BATCH_QUEUE", 64));
  const auto thread_counts = env_sizes("HDLTS_BATCH_THREADS", {1, 2, 4, 8});
  const auto schedulers = env_names("HDLTS_BATCH_SCHEDULERS", {"hdlts"});
  const std::string json_path =
      util::env_string("HDLTS_BATCH_JSON", "BENCH_batch.json");
  const unsigned hardware = std::thread::hardware_concurrency();

  // Distinct problems so the batch exercises real per-request variety.
  // sim::Problem is a non-owning view — the workloads vector must outlive
  // every engine below and must not reallocate once problems point into it.
  std::vector<sim::Workload> workloads;
  workloads.reserve(requests);
  std::vector<sim::Problem> problems;
  problems.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    workload::RandomDagParams params;
    params.num_tasks = tasks;
    params.costs.num_procs = procs;
    workloads.push_back(workload::random_workload(
        params, util::derive_seed(seed, 0xbabcULL, i)));
    problems.emplace_back(workloads.back());
  }

  // Serial reference: the ground truth every engine pass must reproduce.
  const sched::Registry registry = core::default_registry();
  const std::size_t ns = schedulers.size();
  std::vector<double> reference(requests * ns, -1.0);
  for (std::size_t s = 0; s < ns; ++s) {
    const auto scheduler = registry.make(schedulers[s]);
    sim::Schedule out(tasks, procs);
    for (std::size_t i = 0; i < requests; ++i) {
      scheduler->schedule_into(problems[i], out);
      reference[i * ns + s] = out.makespan();
    }
  }

  util::Table table({"threads", "wall ms", "req/s", "speedup vs 1"});
  std::ostringstream rows_json;
  std::vector<double> makespans;
  double rps_at_one = 0.0;
  double rps_at_hi = 0.0;
  bool failed = false;

  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const std::size_t threads = thread_counts[t];
    double best_ms = 0.0;
    svc::BatchEngineOptions options;
    options.threads = threads;
    options.queue_capacity = queue_capacity;
    svc::BatchEngine engine(
        registry,
        [&](const svc::BatchResult& r) {
          // Workers write disjoint slots; the engine publishes them at drain.
          if (r.ok) {
            makespans[r.id * schedulers.size() + r.scheduler_index] =
                r.makespan;
          }
        },
        options);
    // Warm-up through the same engine the timed passes use: worker threads
    // running, scheduler caches and arenas at high water, ring slots lapped.
    run_pass(engine, problems, schedulers, makespans);
    for (std::size_t r = 0; r < reps; ++r) {
      const double ms = run_pass(engine, problems, schedulers, makespans);
      if (r == 0 || ms < best_ms) best_ms = ms;
      if (makespans != reference) {
        std::cerr << "FATAL: engine results at " << threads
                  << " threads differ from the serial reference (determinism "
                     "contract broken)\n";
        failed = true;
      }
    }
    engine.shutdown(svc::BatchEngine::Drain::kDrain);
    const double rps = 1000.0 * static_cast<double>(requests) / best_ms;
    if (threads == thread_counts.front()) rps_at_one = rps;
    if (threads == thread_counts.back()) rps_at_hi = rps;
    const double speedup = rps_at_one > 0.0 ? rps / rps_at_one : 0.0;
    table.add_row({std::to_string(threads), util::fmt(best_ms, 2),
                   util::fmt(rps, 1), util::fmt(speedup, 2)});
    rows_json << "    {\"threads\": " << threads << ", \"wall_ms\": " << best_ms
              << ", \"rps\": " << rps << "}"
              << (t + 1 < thread_counts.size() ? ",\n" : "\n");
  }

  const double batch_speedup = rps_at_one > 0.0 ? rps_at_hi / rps_at_one : 0.0;
  std::ostringstream sched_json;
  for (std::size_t s = 0; s < ns; ++s) {
    sched_json << (s ? ", " : "") << "\"" << schedulers[s] << "\"";
  }

  std::cout << "# micro_batch — svc::BatchEngine throughput (" << requests
            << " requests, " << tasks << " tasks, " << procs << " procs, "
            << "schedulers [" << sched_json.str() << "], host has " << hardware
            << " cores)\n";
  table.write_markdown(std::cout);
  std::cout << "\nbatch throughput speedup " << thread_counts.back() << " vs "
            << thread_counts.front() << " threads: "
            << util::fmt(batch_speedup, 2) << "x\n";
  if (hardware < thread_counts.back()) {
    std::cout << "note: host has only " << hardware << " cores — the "
              << thread_counts.back()
              << "-thread row oversubscribes and the speedup is not "
                 "meaningful here\n";
  }

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json << "{\n  \"bench\": \"micro_batch\",\n  \"seed\": " << seed
       << ",\n  \"tasks\": " << tasks << ",\n  \"procs\": " << procs
       << ",\n  \"requests\": " << requests << ",\n  \"schedulers\": ["
       << sched_json.str() << "],\n  \"hardware_concurrency\": " << hardware
       << ",\n  \"threads_lo\": " << thread_counts.front()
       << ",\n  \"threads_hi\": " << thread_counts.back()
       << ",\n  \"rows\": [\n" << rows_json.str()
       << "  ],\n  \"batch_speedup\": " << batch_speedup << "\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return failed ? 1 : 0;
}
