// serve_bench: the serve benchmark's binary (servebench/run.py builds and
// calls it).
//
//   serve_bench --workload=serve-small|serve-large|serve-dynamic --seed=N
//               [--seconds=S] [--trace=0|1] [--requests=N] [--spans-out=F]
//
// --trace=0 runs the measured closed loop and prints the end-to-end metrics;
// --trace=1 runs the traced replay and prints the per-layer metrics.
// --requests overrides the timed list length (the self-check uses a few).
// The last stdout line is {"correct","attempted","failed","metrics"}; the
// line before it records the run conditions.
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/cli.hpp"
#include "hdlts/util/json.hpp"

namespace {

using namespace servebench;

/// A full run times at least this many requests, so that p99 over the
/// quieter half of them still has at least ten samples beyond it.
constexpr std::size_t kMinTimedRequests = 2000;

std::string quoted(std::string_view s) {
  return "\"" + util::json_escape(s) + "\"";
}

int usage() {
  std::cerr << "usage: serve_bench --workload=serve-small|serve-large|"
               "serve-dynamic --seed=N [--seconds=S] [--trace=0|1] "
               "[--requests=N] [--spans-out=FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "serve_bench: refusing to run: built without optimisation "
               "(build type '" SERVEBENCH_BUILD_TYPE "')\n";
  return 2;
#endif
  try {
    const util::Cli cli(argc, argv);
    const WorkloadDef* def = find_workload(cli.get("workload", ""));
    const std::int64_t seed = cli.get_int("seed", -1);
    const std::int64_t seconds = cli.get_int("seconds", 10);
    const std::int64_t trace = cli.get_int("trace", 0);
    const std::int64_t requests_override = cli.get_int("requests", 0);
    if (def == nullptr || seed < 0 || seconds < 1 ||
        (trace != 0 && trace != 1) || requests_override < 0) {
      return usage();
    }
    const std::size_t timed =
        requests_override > 0
            ? static_cast<std::size_t>(requests_override)
            : std::max(kMinTimedRequests,
                       def->requests_per_second *
                           static_cast<std::size_t>(seconds));

    const HostTicks host0 = read_host_ticks();
    const std::vector<Request> requests =
        make_requests(*def, static_cast<std::uint64_t>(seed), timed);
    RunResult result =
        trace == 1 ? run_traced(*def, requests, cli.get("spans-out", ""))
                   : run_measured(*def, requests);
    const HostTicks host1 = read_host_ticks();

    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    std::uint64_t threads = 0;
    for (const auto& [key, value] : result.notes) {
      if (key == "threads") threads = std::stoull(value);
    }
    const double host_ticks = host1.total - host0.total;
    const double steal_share =
        host_ticks > 0 ? (host1.steal - host0.steal) / host_ticks : 0.0;

    std::ostringstream conditions;
    conditions << "{\"conditions\":{\"workload\":" << quoted(def->name)
               << ",\"seed\":" << seed << ",\"trace\":" << trace
               << ",\"nproc\":" << nproc
               << ",\"simd\":" << quoted(hdlts::simd::active_backend())
               << ",\"build_type\":" << quoted(SERVEBENCH_BUILD_TYPE)
               << ",\"host_steal_share\":" << util::json_number(steal_share);
    for (const auto& [key, value] : result.notes) {
      conditions << "," << quoted(key) << ":" << quoted(value);
    }
    conditions << "}}";
    std::cout << conditions.str() << "\n";

    if (nproc > 0 && threads > static_cast<std::uint64_t>(nproc)) {
      std::cerr << "serve_bench: the process ran " << threads
                << " threads on " << nproc << " CPUs\n";
      return 1;
    }

    std::ostringstream line;
    line << "{\"correct\":" << (result.correct ? "true" : "false")
         << ",\"attempted\":" << result.attempted
         << ",\"failed\":" << result.failed << ",\"metrics\":{";
    bool first = true;
    for (const Metric& metric : result.metrics) {
      line << (first ? "" : ",") << quoted(metric.name)
           << ":{\"value\":" << util::json_number(metric.value)
           << ",\"unit\":" << quoted(metric.unit) << "}";
      first = false;
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << "\n";
    return 1;
  }
}
