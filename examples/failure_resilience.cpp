// Fault-tolerance demo (paper §IV claim + §VI future work): run HDLTS
// online, kill processors mid-flight, and watch the dynamic ITQ remap the
// remaining work.
//
//   $ ./failure_resilience --tasks=80 --cpus=4 --fail=1@0.4 --fail=2@0.7
//
// Each --fail=proc@frac kills one processor at the given fraction of the
// clean makespan and may be repeated. Without --fail, --failures=N injects a
// default staggered scenario (--fail-proc / --fail-frac tune its first
// failure). Add --validate to replay the run through check::OnlineValidator.
#include <exception>
#include <iostream>
#include <limits>

#include "hdlts/check/validate.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/util/cli.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace {

/// Parses "proc@frac" (e.g. "1@0.4"). Throws InvalidArgument on junk.
hdlts::core::ProcFailure parse_fail(const std::string& spec,
                                    double clean_makespan) {
  const auto at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
    throw hdlts::InvalidArgument("--fail expects proc@frac, got '" + spec +
                                 "'");
  }
  try {
    const unsigned long proc = std::stoul(spec.substr(0, at));
    if (proc > std::numeric_limits<hdlts::platform::ProcId>::max()) {
      throw hdlts::InvalidArgument("--fail processor id out of range in '" +
                                   spec + "'");
    }
    const double frac = std::stod(spec.substr(at + 1));
    return {static_cast<hdlts::platform::ProcId>(proc), clean_makespan * frac};
  } catch (const hdlts::Error&) {
    throw;
  } catch (const std::exception&) {
    throw hdlts::InvalidArgument("--fail expects proc@frac, got '" + spec +
                                 "'");
  }
}

int run(const hdlts::util::Cli& cli) {
  using namespace hdlts;
  workload::RandomDagParams params;
  params.num_tasks = static_cast<std::size_t>(cli.get_int("tasks", 80));
  params.costs.num_procs = static_cast<std::size_t>(cli.get_int("cpus", 4));
  params.costs.ccr = cli.get_double("ccr", 2.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const sim::Workload w = workload::random_workload(params, seed);

  const core::OnlineResult clean = core::run_online(w, {});
  std::cout << "clean run: makespan " << clean.makespan << " on "
            << params.costs.num_procs << " CPUs\n";

  std::vector<core::ProcFailure> fails;
  const auto specs = cli.get_all("fail");
  if (!specs.empty()) {
    for (const std::string& spec : specs) {
      fails.push_back(parse_fail(spec, clean.makespan));
    }
  } else {
    const auto failures = static_cast<std::size_t>(cli.get_int("failures", 1));
    for (std::size_t f = 0; f < failures; ++f) {
      const auto proc = static_cast<platform::ProcId>(
          cli.get_int("fail-proc", static_cast<std::int64_t>(f)));
      const double frac = cli.get_double("fail-frac", 0.4);
      fails.push_back(
          {proc, clean.makespan * frac * (1.0 + 0.3 * static_cast<double>(f))});
    }
  }

  const core::OnlineResult r = core::run_online(w, fails);
  for (const core::ProcFailure& f : fails) {
    std::cout << "injected failure: " << w.platform.proc_name(f.proc)
              << " dies at t = " << f.time << "\n";
  }
  if (cli.get_bool("validate", false)) {
    const check::OnlineValidator validator;
    const auto violations = validator.validate(w, fails, r);
    if (!violations.empty()) {
      std::cout << "VALIDATION FAILED: " << violations.front() << "\n";
      return 1;
    }
    std::cout << "validation: " << r.executions.size()
              << " executions replayed, all invariants hold\n";
  }
  if (!r.completed) {
    std::cout << "workflow could NOT complete (no machines left)\n";
    return 1;
  }
  std::cout << "degraded run: makespan " << r.makespan << " ("
            << util::fmt(r.makespan / clean.makespan, 2) << "x clean), "
            << r.lost_executions << " executions lost and re-run\n\n";

  util::Table table({"t", "task", "proc", "event"});
  std::size_t shown = 0;
  for (const core::OnlineExec& e : r.executions) {
    if (!e.lost && !e.duplicate) continue;  // highlight the interesting rows
    table.add_row({util::fmt(e.start, 1), std::to_string(e.task),
                   w.platform.proc_name(e.proc),
                   e.lost ? "KILLED mid-execution (re-queued)"
                          : "entry duplicate"});
    if (++shown >= 12) break;
  }
  if (table.rows() > 0) {
    std::cout << "notable events:\n";
    table.write_markdown(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(hdlts::util::Cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
