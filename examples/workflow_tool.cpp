// A small command-line tool around the library: generate workload files,
// schedule them with any registered algorithm, and print/dump the result.
//
//   $ ./workflow_tool generate --kind=montage --nodes=50 --out=m.wl
//   $ ./workflow_tool schedule m.wl --scheduler=hdlts --gantt
//   $ ./workflow_tool schedule m.wl --scheduler=heft --csv=placements.csv
//   $ ./workflow_tool batch workloads.txt --schedulers=hdlts,heft --threads=8
//   $ ./workflow_tool list
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <tuple>

#include "hdlts/check/validate.hpp"
#include "hdlts/core/hdlts.hpp"
#include "hdlts/graph/analysis.hpp"
#include "hdlts/io/workload_io.hpp"
#include "hdlts/metrics/experiment.hpp"
#include "hdlts/metrics/metrics.hpp"
#include "hdlts/net/client.hpp"
#include "hdlts/net/server.hpp"
#include "hdlts/obs/export.hpp"
#include "hdlts/obs/monitor.hpp"
#include "hdlts/obs/prometheus.hpp"
#include "hdlts/report/gantt_svg.hpp"
#include "hdlts/sim/gantt.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/cli.hpp"
#include "hdlts/util/config.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/workload/fft.hpp"
#include "hdlts/workload/gauss.hpp"
#include "hdlts/workload/md.hpp"
#include "hdlts/workload/montage.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace {

using namespace hdlts;

int usage() {
  std::cout <<
      "usage:\n"
      "  workflow_tool list\n"
      "  workflow_tool generate --kind=random|fft|montage|md|gauss\n"
      "      [--tasks=N --points=M --nodes=N --matrix=M]\n"
      "      [--cpus=P --ccr=X --beta=X --wdag=X --seed=S] --out=FILE\n"
      "  workflow_tool schedule FILE [--scheduler=hdlts] [--gantt]\n"
      "      [--csv=FILE] [--svg=FILE] [--trace-out=FILE]\n"
      "      [--counters-out=FILE] [--prom-out=FILE]\n"
      "  workflow_tool profile FILE\n"
      "  workflow_tool compare FILE [--schedulers=a,b,c]\n"
      "      [--pareto] [--reps=N] [--seed=S] [--deadline-factor=X]\n"
      "      [--trace-out=FILE] [--counters-out=FILE] [--prom-out=FILE]\n"
      "  workflow_tool batch WORKLOADS.txt [--schedulers=a,b,c]\n"
      "      [--threads=N] [--queue-cap=N] [--out=FILE.jsonl] [--check]\n"
      "      [--trace-out=FILE] [--counters-out=FILE] [--prom-out=FILE]\n"
      "  workflow_tool online FILE [--fail=proc@frac ...] [--validate]\n"
      "  workflow_tool stream FILE [FILE ...] [--arrivals=t1,t2,...]\n"
      "      [--policy=pv|fifo] [--validate]\n"
      "  workflow_tool serve [--config=key=value,...] [--port-file=FILE]\n"
      "      [--timeline=FILE]   (see docs/SERVICE.md for config keys)\n"
      "  workflow_tool submit [--port=N|--port-file=FILE] [--tenant=T]\n"
      "      [--kind=static|online|stream] [--id=N] [--seed=S] [--count=N]\n"
      "      [--workload=FILE | --generator=random|fft|montage|md|gauss\n"
      "       --tasks=N --cpus=P --ccr=X ...] [--schedulers=a,b,c]\n"
      "      [--fail=proc@time ...] [--arrivals=t1,t2,...] [--policy=pv]\n"
      "      [--raw-line=JSON] [--ping] [--stats] [--drain]\n"
      "      [--expect=ok,QueueFull,...] [--metrics-out=FILE]\n"
      "      [--timeout-ms=N]\n";
  return 2;
}

/// SIGTERM/SIGINT target for the serve verb (async-signal-safe drain).
std::atomic<net::Server*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int) {
  net::Server* server = g_serve_server.load(std::memory_order_acquire);
  if (server != nullptr) server->notify_drain_async();
}

/// Parses a --fail spec "proc@frac"; frac scales the clean makespan.
core::ProcFailure parse_fail_spec(const std::string& spec,
                                  double clean_makespan) {
  const auto at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= spec.size()) {
    throw InvalidArgument("--fail expects proc@frac, got '" + spec + "'");
  }
  try {
    const unsigned long proc = std::stoul(spec.substr(0, at));
    if (proc > std::numeric_limits<platform::ProcId>::max()) {
      throw InvalidArgument("--fail processor id out of range in '" + spec +
                            "'");
    }
    const double frac = std::stod(spec.substr(at + 1));
    return {static_cast<platform::ProcId>(proc), clean_makespan * frac};
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("--fail expects proc@frac, got '" + spec + "'");
  }
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::istringstream ls(csv);
  std::string token;
  while (std::getline(ls, token, ',')) {
    if (!token.empty()) names.push_back(token);
  }
  return names;
}

/// Dumps the process-wide metric registry as JSON ({"counters":..,...}).
void write_counters_file(const std::string& path) {
  std::ofstream out(path);
  obs::write_counters_json(out, obs::MetricRegistry::global());
  out << "\n";
  std::cout << "wrote " << path << "\n";
}

/// Dumps the registry in the Prometheus text exposition format.
void write_prom_file(const std::string& path) {
  std::ofstream out(path);
  obs::prometheus_render(obs::MetricRegistry::global(), out);
  std::cout << "wrote " << path << "\n";
}

sim::Workload generate(const util::Cli& cli) {
  workload::CostParams costs;
  costs.num_procs = static_cast<std::size_t>(cli.get_int("cpus", 4));
  costs.ccr = cli.get_double("ccr", 1.0);
  costs.beta = cli.get_double("beta", 0.8);
  costs.wdag = cli.get_double("wdag", 50.0);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string kind = cli.get("kind", "random");
  if (kind == "random") {
    workload::RandomDagParams p;
    p.num_tasks = static_cast<std::size_t>(cli.get_int("tasks", 100));
    p.alpha = cli.get_double("alpha", 1.0);
    p.density = static_cast<std::size_t>(cli.get_int("density", 3));
    p.costs = costs;
    return workload::random_workload(p, seed);
  }
  if (kind == "fft") {
    workload::FftParams p;
    p.points = static_cast<std::size_t>(cli.get_int("points", 16));
    p.costs = costs;
    return workload::fft_workload(p, seed);
  }
  if (kind == "montage") {
    workload::MontageParams p;
    p.num_nodes = static_cast<std::size_t>(cli.get_int("nodes", 50));
    p.costs = costs;
    return workload::montage_workload(p, seed);
  }
  if (kind == "md") {
    workload::MdParams p;
    p.costs = costs;
    return workload::md_workload(p, seed);
  }
  if (kind == "gauss") {
    workload::GaussParams p;
    p.matrix_size = static_cast<std::size_t>(cli.get_int("matrix", 8));
    p.costs = costs;
    return workload::gauss_workload(p, seed);
  }
  throw InvalidArgument("unknown workload kind '" + kind + "'");
}

/// Renders the submit verb's generator object from the CLI flags (all
/// parameters are always emitted; the server applies the same defaults).
std::string generator_json(const util::Cli& cli) {
  std::string out = "{\"kind\":\"";
  out += util::json_escape(cli.get("generator", "random"));
  out += "\",\"tasks\":" + std::to_string(cli.get_int("tasks", 100));
  out += ",\"alpha\":" + util::json_number(cli.get_double("alpha", 1.0));
  out += ",\"density\":" + std::to_string(cli.get_int("density", 3));
  out += ",\"points\":" + std::to_string(cli.get_int("points", 16));
  out += ",\"nodes\":" + std::to_string(cli.get_int("nodes", 50));
  out += ",\"matrix\":" + std::to_string(cli.get_int("matrix", 8));
  out += ",\"cpus\":" + std::to_string(cli.get_int("cpus", 4));
  out += ",\"ccr\":" + util::json_number(cli.get_double("ccr", 1.0));
  out += ",\"beta\":" + util::json_number(cli.get_double("beta", 0.8));
  out += ",\"wdag\":" + util::json_number(cli.get_double("wdag", 50.0));
  out += "}";
  return out;
}

/// Builds one submit frame from the CLI flags (without trailing newline).
std::string submit_line(const util::Cli& cli, std::uint64_t id) {
  const std::string kind = cli.get("kind", "static");
  std::string line = "{\"op\":\"submit\",\"id\":" + std::to_string(id);
  line += ",\"tenant\":\"" + util::json_escape(cli.get("tenant", "default")) +
          "\"";
  line += ",\"kind\":\"" + util::json_escape(kind) + "\"";
  line += ",\"seed\":" + std::to_string(cli.get_int("seed", 1));

  std::string payload;  // the workload/generator member, reused per arrival
  if (cli.has("workload")) {
    const std::string path = cli.get("workload", "");
    std::ifstream in(path);
    if (!in) throw InvalidArgument("cannot open workload '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    payload = "\"workload\":\"" + util::json_escape(text.str()) + "\"";
  } else {
    payload = "\"generator\":" + generator_json(cli);
  }

  if (kind == "stream") {
    const std::vector<std::string> times = split_names(
        cli.get("arrivals", "0,20"));
    line += ",\"policy\":\"" + util::json_escape(cli.get("policy", "pv")) +
            "\",\"arrivals\":[";
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (i > 0) line += ',';
      line += "{" + payload + ",\"arrival\":" +
              util::json_number(std::stod(times[i])) +
              ",\"seed\":" +
              std::to_string(cli.get_int("seed", 1) +
                             static_cast<std::int64_t>(i)) +
              "}";
    }
    line += "]";
  } else {
    line += "," + payload;
    if (kind == "online") {
      std::string failures;
      for (const std::string& spec : cli.get_all("fail")) {
        const auto at = spec.find('@');
        if (at == std::string::npos) {
          throw InvalidArgument("--fail expects proc@time, got '" + spec +
                                "'");
        }
        if (!failures.empty()) failures += ',';
        failures += "{\"proc\":" + spec.substr(0, at) +
                    ",\"time\":" + spec.substr(at + 1) + "}";
      }
      if (!failures.empty()) line += ",\"failures\":[" + failures + "]";
    } else {
      line += ",\"schedulers\":[";
      const auto names = split_names(cli.get("schedulers", "hdlts"));
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0) line += ',';
        line += "\"" + util::json_escape(names[i]) + "\"";
      }
      line += "]";
    }
  }
  line += "}";
  return line;
}

/// Maps a response frame to its outcome class for --expect: "ok" for
/// accepted responses, the taxonomy name ("QueueFull", ...) for errors.
std::string classify_response(const std::string& line) {
  if (line.rfind("{\"ok\":true", 0) == 0) return "ok";
  const auto pos = line.find("\"error\":\"");
  if (pos == std::string::npos) return "unparseable";
  const auto start = pos + 9;
  const auto end = line.find('"', start);
  if (end == std::string::npos) return "unparseable";
  return line.substr(start, end - start);
}

std::uint16_t resolve_port(const util::Cli& cli) {
  if (cli.has("port")) {
    return static_cast<std::uint16_t>(cli.get_int("port", 0));
  }
  const std::string path = cli.get("port-file", "");
  if (path.empty()) {
    throw InvalidArgument("submit needs --port or --port-file");
  }
  std::ifstream in(path);
  int port = 0;
  in >> port;
  if (!in || port <= 0 || port > 65535) {
    throw InvalidArgument("cannot read a port from '" + path + "'");
  }
  return static_cast<std::uint16_t>(port);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  try {
    if (cli.positional().empty()) return usage();
    const std::string& command = cli.positional()[0];

    if (command == "list") {
      std::cout << "registered schedulers:\n";
      for (const auto& name : core::default_registry().names()) {
        std::cout << "  " << name << "\n";
      }
      return 0;
    }

    if (command == "generate") {
      const std::string out = cli.get("out", "workflow.wl");
      const sim::Workload w = generate(cli);
      io::save_workload(out, w);
      std::cout << "wrote " << out << " (" << w.graph.num_tasks()
                << " tasks, " << w.graph.num_edges() << " edges, "
                << w.platform.num_procs() << " CPUs)\n";
      return 0;
    }

    if (command == "profile") {
      if (cli.positional().size() < 2) return usage();
      const sim::Workload w = io::load_workload(cli.positional()[1]);
      graph::write_profile(std::cout, graph::profile(w.graph));
      std::cout << "processors       " << w.platform.num_procs() << "\n"
                << "mean exec (W)    ";
      double mean = 0.0;
      for (graph::TaskId v = 0; v < w.graph.num_tasks(); ++v) {
        mean += w.costs.mean(v);
      }
      std::cout << mean / static_cast<double>(w.graph.num_tasks()) << "\n";
      return 0;
    }

    if (command == "compare") {
      if (cli.positional().size() < 2) return usage();
      const sim::Workload w = io::load_workload(cli.positional()[1]);
      const sim::Problem problem(w);
      const auto registry = core::default_registry();
      const std::vector<std::string> names = split_names(
          cli.get("schedulers", "hdlts,heft,pets,cpop,peft,sdbats,dheft"));
      if (cli.has("pareto")) {
        // Multi-objective mode: aggregate makespan / energy / deadline-miss
        // rate per scheduler over --reps repetitions of this workload and
        // report the Pareto frontier as JSON on stdout. The frontier order
        // is deterministic (metrics::pareto_frontier sorts it).
        metrics::CompareOptions copts;
        copts.repetitions = static_cast<std::size_t>(
            std::max<std::int64_t>(1, cli.get_int("reps", 1)));
        copts.base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
        copts.deadline_factor = cli.get_double("deadline-factor", 0.0);
        const metrics::WorkloadFactory factory =
            [&w](std::uint64_t) { return w; };
        const std::vector<metrics::SchedulerSummary> summaries =
            metrics::compare_schedulers(factory, names, registry, copts);
        const std::vector<metrics::ParetoPoint> points =
            metrics::pareto_points(summaries);
        const std::vector<metrics::ParetoPoint> frontier =
            metrics::pareto_frontier(summaries);
        auto on_frontier = [&frontier](const std::string& name) {
          return std::any_of(frontier.begin(), frontier.end(),
                             [&](const metrics::ParetoPoint& f) {
                               return f.scheduler == name;
                             });
        };
        std::cout << "{\"objectives\": [\"makespan\", \"energy\", "
                     "\"deadline_miss_rate\"],\n \"deadline_factor\": "
                  << util::json_number(copts.deadline_factor)
                  << ",\n \"schedulers\": [";
        for (std::size_t i = 0; i < points.size(); ++i) {
          const metrics::ParetoPoint& p = points[i];
          std::cout << (i == 0 ? "" : ",") << "\n  {\"scheduler\": \""
                    << util::json_escape(p.scheduler) << "\", \"makespan\": "
                    << util::json_number(p.makespan) << ", \"energy\": "
                    << util::json_number(p.energy)
                    << ", \"deadline_miss_rate\": "
                    << util::json_number(p.miss_rate) << ", \"on_frontier\": "
                    << (on_frontier(p.scheduler) ? "true" : "false") << "}";
        }
        std::cout << "\n ],\n \"frontier\": [";
        for (std::size_t i = 0; i < frontier.size(); ++i) {
          std::cout << (i == 0 ? "" : ", ") << "\""
                    << util::json_escape(frontier[i].scheduler) << "\"";
        }
        std::cout << "]}\n";
        return 0;
      }
      obs::RecordingTrace recording;
      const bool tracing = cli.has("trace-out");
      if (tracing) obs::SpanLog::global().enable();
      util::Table table({"scheduler", "makespan", "SLR", "efficiency"});
      for (const auto& name : names) {
        const auto scheduler = registry.make(name);
        if (tracing) scheduler->set_trace_sink(&recording);
        const sim::Schedule s = scheduler->schedule(problem);
        table.add_row({name, util::fmt(s.makespan(), 2),
                       util::fmt(metrics::slr(problem, s), 3),
                       util::fmt(metrics::efficiency(problem, s), 3)});
      }
      table.write_markdown(std::cout);
      if (tracing) {
        const std::string path = cli.get("trace-out", "trace.json");
        std::ofstream out(path);
        obs::ChromeTraceOptions trace_options;
        trace_options.graph = &w.graph;
        obs::write_chrome_trace(out, nullptr, &recording,
                                &obs::SpanLog::global(), trace_options);
        std::cout << "wrote " << path << "\n";
      }
      if (cli.has("counters-out")) {
        write_counters_file(cli.get("counters-out", "counters.json"));
      }
      if (cli.has("prom-out")) {
        write_prom_file(cli.get("prom-out", "counters.prom"));
      }
      return 0;
    }

    if (command == "batch") {
      // Concurrent batch mode: a file naming one workload per line goes in,
      // one JSON object per (workload, scheduler) comes out (JSONL, sorted
      // by request id then scheduler), scheduled by svc::BatchEngine across
      // --threads workers with a --queue-cap-bounded submission queue.
      if (cli.positional().size() < 2) return usage();
      std::vector<std::string> paths;
      {
        std::ifstream list(cli.positional()[1]);
        if (!list) {
          throw InvalidArgument("cannot open workload list '" +
                                cli.positional()[1] + "'");
        }
        std::string line;
        while (std::getline(list, line)) {
          const auto start = line.find_first_not_of(" \t\r");
          if (start == std::string::npos || line[start] == '#') continue;
          const auto stop = line.find_last_not_of(" \t\r");
          paths.push_back(line.substr(start, stop - start + 1));
        }
      }
      if (paths.empty()) {
        throw InvalidArgument("workload list '" + cli.positional()[1] +
                              "' names no workload files");
      }
      std::vector<sim::Workload> workloads;
      workloads.reserve(paths.size());
      for (const auto& path : paths) {
        workloads.push_back(io::load_workload(path));
      }
      std::vector<sim::Problem> problems;
      problems.reserve(workloads.size());
      for (const auto& w : workloads) problems.emplace_back(w);

      const auto registry = core::default_registry();
      const std::vector<std::string> names =
          split_names(cli.get("schedulers", "hdlts,heft,cpop"));

      obs::RecordingTrace recording;
      const bool tracing = cli.has("trace-out");
      if (tracing) obs::SpanLog::global().enable();

      struct Row {
        std::uint64_t id = 0;
        std::size_t scheduler_index = 0;
        std::string scheduler;
        bool ok = false;
        std::string error;
        double makespan = 0.0, slr = 0.0, speedup = 0.0, efficiency = 0.0;
      };
      std::vector<Row> rows;
      std::mutex rows_mu;
      auto on_result = [&](const svc::BatchResult& r) {
        Row row;
        row.id = r.id;
        row.scheduler_index = r.scheduler_index;
        row.scheduler = std::string(r.scheduler);
        row.ok = r.ok;
        row.error = std::string(r.error);
        if (r.ok) {
          row.makespan = r.makespan;
          row.slr = metrics::slr(*r.problem, *r.schedule);
          row.speedup = metrics::speedup(*r.problem, *r.schedule);
          row.efficiency = metrics::efficiency(*r.problem, *r.schedule);
        }
        std::lock_guard lock(rows_mu);
        rows.push_back(std::move(row));
      };

      svc::BatchEngineOptions engine_options;
      engine_options.threads =
          static_cast<std::size_t>(cli.get_int("threads", 0));
      engine_options.queue_capacity =
          static_cast<std::size_t>(cli.get_int("queue-cap", 256));
      engine_options.check_schedules = cli.get_bool("check", false);
      if (tracing) engine_options.trace_sink = &recording;

      const auto t0 = std::chrono::steady_clock::now();
      svc::BatchEngine engine(registry, on_result, engine_options);
      svc::BatchRequest request;
      request.schedulers = names;
      for (std::size_t i = 0; i < problems.size(); ++i) {
        request.id = i;
        request.problem = &problems[i];
        engine.submit(request);  // bounded queue: blocks, never drops
      }
      engine.shutdown(svc::BatchEngine::Drain::kDrain);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();

      std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return std::tie(a.id, a.scheduler_index) <
               std::tie(b.id, b.scheduler_index);
      });
      const std::string out_path = cli.get("out", "-");
      std::ofstream out_file;
      if (out_path != "-") {
        out_file.open(out_path);
        if (!out_file) {
          throw InvalidArgument("cannot write '" + out_path + "'");
        }
      }
      std::ostream& out = out_path == "-" ? std::cout : out_file;
      for (const Row& row : rows) {
        out << "{\"id\": " << row.id << ", \"workload\": \""
            << util::json_escape(paths[row.id]) << "\", \"scheduler\": \""
            << util::json_escape(row.scheduler) << "\", \"ok\": "
            << (row.ok ? "true" : "false");
        if (row.ok) {
          out << ", \"makespan\": " << util::json_number(row.makespan)
              << ", \"slr\": " << util::json_number(row.slr)
              << ", \"speedup\": " << util::json_number(row.speedup)
              << ", \"efficiency\": " << util::json_number(row.efficiency);
        } else {
          out << ", \"error\": \"" << util::json_escape(row.error) << "\"";
        }
        out << "}\n";
      }

      const auto stats = engine.stats();
      std::cerr << "batch: " << stats.completed << "/" << stats.submitted
                << " requests (" << rows.size() << " results) on "
                << engine.threads() << " threads in " << util::fmt(wall_ms, 1)
                << " ms ("
                << util::fmt(1000.0 * static_cast<double>(stats.completed) /
                                 wall_ms,
                             1)
                << " req/s), queue high-water " << stats.queue_high_water
                << ", failures " << stats.sched_failures << "\n";
      if (out_path != "-") std::cout << "wrote " << out_path << "\n";
      if (tracing) {
        const std::string path = cli.get("trace-out", "trace.json");
        std::ofstream trace_out(path);
        obs::write_chrome_trace(trace_out, nullptr, &recording,
                                &obs::SpanLog::global(), {});
        std::cout << "wrote " << path << "\n";
      }
      if (cli.has("counters-out")) {
        write_counters_file(cli.get("counters-out", "counters.json"));
      }
      if (cli.has("prom-out")) {
        write_prom_file(cli.get("prom-out", "counters.prom"));
      }
      return stats.sched_failures == 0 ? 0 : 1;
    }

    if (command == "online") {
      // Failure-injected online run of one workload; --validate replays the
      // result through check::OnlineValidator (the dynamic oracle described
      // in docs/TESTING.md).
      if (cli.positional().size() < 2) return usage();
      const sim::Workload w = io::load_workload(cli.positional()[1]);
      const double clean =
          core::Hdlts().schedule(sim::Problem(w)).makespan();
      std::vector<core::ProcFailure> fails;
      for (const std::string& spec : cli.get_all("fail")) {
        fails.push_back(parse_fail_spec(spec, clean));
      }
      const core::OnlineResult r = core::run_online(w, fails);
      std::cout << "clean makespan  = " << clean
                << "\nonline makespan = " << r.makespan
                << "\ncompleted       = " << (r.completed ? "yes" : "no")
                << "\nlost executions = " << r.lost_executions << "\n";
      if (cli.get_bool("validate", false)) {
        const check::OnlineValidator validator;
        const auto violations = validator.validate(w, fails, r);
        if (!violations.empty()) {
          std::cerr << "INVALID online result: " << violations.front()
                    << "\n";
          return 1;
        }
        std::cout << "validation      = " << r.executions.size()
                  << " executions replayed, all invariants hold\n";
      }
      return r.completed ? 0 : 1;
    }

    if (command == "stream") {
      // Multi-workflow stream run; arrival times come from --arrivals (CSV,
      // padded with the last gap) and default to 20 time units apart.
      if (cli.positional().size() < 2) return usage();
      std::vector<core::StreamArrival> arrivals;
      const std::vector<std::string> times =
          split_names(cli.get("arrivals", ""));
      for (std::size_t i = 1; i < cli.positional().size(); ++i) {
        const std::size_t w = i - 1;
        const double arrival = w < times.size()
                                   ? std::stod(times[w])
                                   : 20.0 * static_cast<double>(w);
        arrivals.push_back(
            {io::load_workload(cli.positional()[i]), arrival});
      }
      core::StreamOptions stream_options;
      const std::string policy = cli.get("policy", "pv");
      if (policy == "fifo") {
        stream_options.policy = core::StreamPolicy::kFifoEft;
      } else if (policy != "pv") {
        throw InvalidArgument("--policy expects pv or fifo, got '" + policy +
                              "'");
      }
      const core::StreamResult r = core::run_stream(arrivals, stream_options);
      util::Table table({"workflow", "arrival", "finish", "flow time"});
      for (std::size_t w = 0; w < arrivals.size(); ++w) {
        table.add_row({cli.positional()[w + 1],
                       util::fmt(arrivals[w].arrival, 2),
                       util::fmt(r.finish[w], 2),
                       util::fmt(r.flow_time[w], 2)});
      }
      table.write_markdown(std::cout);
      std::cout << "stream makespan = " << r.makespan << "\n";
      if (cli.get_bool("validate", false)) {
        const check::StreamValidator validator(stream_options);
        const auto violations = validator.validate(arrivals, r);
        if (!violations.empty()) {
          std::cerr << "INVALID stream result: " << violations.front()
                    << "\n";
          return 1;
        }
        std::cout << "validation      = " << r.executions.size()
                  << " executions replayed, all invariants hold\n";
      }
      return 0;
    }

    if (command == "serve") {
      // Scheduling-as-a-service daemon (docs/SERVICE.md): admission control
      // and per-tenant fair queuing in front of a svc::BatchEngine, drained
      // gracefully on SIGTERM/SIGINT or the drain verb. Exit 0 = drained
      // with invariants intact (and SLO gates passing when monitored).
      util::Config config(cli.get("config", ""));
      net::ServerOptions options = net::server_options_from_config(config);
      const bool monitor_on = config.get_bool("monitor", false);
      const auto monitor_period =
          std::chrono::milliseconds(config.get_int("monitor_period_ms", 1000));
      const double min_completed_rate =
          config.get_double("min_completed_rate", 0.0);
      const double max_p99_ms = config.get_double("max_p99_ms", 0.0);
      const double max_rss_growth = config.get_double("max_rss_growth", 0.0);
      if (const auto unused = config.unused_keys(); !unused.empty()) {
        throw InvalidArgument("unknown serve config key '" + unused.front() +
                              "'");
      }

      const auto registry = core::default_registry();
      net::Server server(registry, options);
      if (cli.has("port-file")) {
        std::ofstream port_file(cli.get("port-file", ""));
        port_file << server.port() << "\n";
      }

      obs::MonitorOptions monitor_options;
      monitor_options.period = monitor_period;
      std::ofstream timeline;
      if (cli.has("timeline")) {
        timeline.open(cli.get("timeline", "serve_timeline.jsonl"));
        monitor_options.timeline = &timeline;
      }
      if (min_completed_rate > 0.0) {
        monitor_options.gates.push_back({obs::SloKind::kMinCounterRate,
                                         "svc.serve.completed",
                                         min_completed_rate, "min_req_rate"});
      }
      if (max_p99_ms > 0.0) {
        monitor_options.gates.push_back({obs::SloKind::kMaxHistogramP99,
                                         "svc.serve.latency_ms", max_p99_ms,
                                         "max_p99_ms"});
      }
      if (max_rss_growth > 0.0) {
        monitor_options.gates.push_back({obs::SloKind::kMaxRssGrowth, "",
                                         max_rss_growth, "max_rss_growth"});
      }
      obs::RuntimeMonitor monitor(monitor_options);

      g_serve_server.store(&server, std::memory_order_release);
      std::signal(SIGTERM, serve_signal_handler);
      std::signal(SIGINT, serve_signal_handler);

      if (monitor_on) monitor.start();
      server.start();
      std::cout << "listening on 127.0.0.1:" << server.port() << "\n"
                << std::flush;
      server.wait();
      g_serve_server.store(nullptr, std::memory_order_release);

      const auto stats = server.stats();
      const auto engine = server.engine_stats();
      std::cerr << "serve: drained; connections " << stats.connections
                << ", accepted " << stats.accepted << ", completed "
                << stats.completed << ", rejected " << stats.rejected
                << ", orphaned " << stats.orphaned << ", engine "
                << engine.completed << "/" << engine.submitted << "\n";
      bool ok = true;
      if (stats.accepted != stats.completed) {
        std::cerr << "serve: INVARIANT VIOLATION accepted != completed\n";
        ok = false;
      }
      if (engine.submitted != engine.completed + engine.cancelled) {
        std::cerr << "serve: INVARIANT VIOLATION engine submitted != "
                     "completed + cancelled\n";
        ok = false;
      }
      if (monitor_on) {
        const auto report = monitor.finish();
        for (const auto& gate : report.gates) {
          std::cerr << "serve: slo " << gate.gate.label << " "
                    << obs::verdict_name(gate.verdict) << " (" << gate.detail
                    << ")\n";
        }
        std::cerr << "serve: slo verdict "
                  << obs::verdict_name(report.verdict) << " over "
                  << report.samples << " samples\n";
        if (report.verdict == obs::Verdict::kFail) ok = false;
      }
      return ok ? 0 : 1;
    }

    if (command == "submit") {
      // Blocking client for the serve daemon. Pipelines --count copies of
      // the request, prints each response frame to stdout, and (optionally)
      // checks every outcome against --expect. Exit 3 = unexpected outcome.
      const auto timeout =
          std::chrono::milliseconds(cli.get_int("timeout-ms", 30000));
      const std::uint16_t port = resolve_port(cli);

      std::vector<std::string> lines;
      if (cli.has("raw-line")) {
        lines.push_back(cli.get("raw-line", ""));
      } else if (cli.get_bool("ping", false)) {
        lines.push_back("{\"op\":\"ping\"}");
      } else if (cli.get_bool("stats", false)) {
        lines.push_back("{\"op\":\"stats\"}");
      } else if (cli.get_bool("drain", false)) {
        lines.push_back("{\"op\":\"drain\"}");
      } else if (cli.has("workload") || cli.has("generator")) {
        const auto count =
            static_cast<std::uint64_t>(cli.get_int("count", 1));
        const auto base_id = static_cast<std::uint64_t>(cli.get_int("id", 1));
        for (std::uint64_t i = 0; i < count; ++i) {
          lines.push_back(submit_line(cli, base_id + i));
        }
      } else if (!cli.has("metrics-out")) {
        return usage();
      }

      int exit_code = 0;
      if (!lines.empty()) {
        net::Client client(port, timeout);
        for (const auto& line : lines) client.send_line(line);
        const std::vector<std::string> expect =
            split_names(cli.get("expect", ""));
        for (std::size_t i = 0; i < lines.size(); ++i) {
          const std::string response = client.recv_line();
          std::cout << response << "\n";
          if (!expect.empty()) {
            const std::string outcome = classify_response(response);
            if (std::find(expect.begin(), expect.end(), outcome) ==
                expect.end()) {
              std::cerr << "unexpected outcome '" << outcome << "' (expected "
                        << cli.get("expect", "") << ")\n";
              exit_code = 3;
            }
          }
        }
      }
      if (cli.has("metrics-out")) {
        const std::string path = cli.get("metrics-out", "metrics.prom");
        std::ofstream out(path);
        out << net::Client::scrape_metrics(port, timeout);
        std::cerr << "wrote " << path << "\n";
      }
      return exit_code;
    }

    if (command == "schedule") {
      if (cli.positional().size() < 2) return usage();
      const sim::Workload w = io::load_workload(cli.positional()[1]);
      const sim::Problem problem(w);
      const auto scheduler =
          core::default_registry().make(cli.get("scheduler", "hdlts"));
      obs::RecordingTrace recording;
      const bool tracing = cli.has("trace-out");
      if (tracing) {
        scheduler->set_trace_sink(&recording);
        obs::SpanLog::global().enable();
      }
      const sim::Schedule schedule = scheduler->schedule(problem);
      const auto violations = schedule.validate(problem);
      if (!violations.empty()) {
        std::cerr << "INVALID schedule: " << violations.front() << "\n";
        return 1;
      }
      std::cout << "scheduler  = " << scheduler->name()
                << "\nmakespan   = " << schedule.makespan()
                << "\nSLR        = " << metrics::slr(problem, schedule)
                << "\nspeedup    = " << metrics::speedup(problem, schedule)
                << "\nefficiency = " << metrics::efficiency(problem, schedule)
                << "\n";
      if (cli.get_bool("gantt", false)) {
        std::cout << "\n" << sim::to_gantt(schedule);
      }
      if (cli.has("csv")) {
        std::ofstream out(cli.get("csv", "placements.csv"));
        sim::write_placements_csv(out, schedule, &w.graph);
        std::cout << "wrote " << cli.get("csv", "placements.csv") << "\n";
      }
      if (cli.has("svg")) {
        report::GanttSvgOptions gantt_options;
        gantt_options.graph = &w.graph;
        gantt_options.title = scheduler->name() + " — makespan " +
                              std::to_string(schedule.makespan());
        report::save_gantt_svg(cli.get("svg", "schedule.svg"), schedule,
                               gantt_options);
        std::cout << "wrote " << cli.get("svg", "schedule.svg") << "\n";
      }
      if (tracing) {
        const std::string path = cli.get("trace-out", "trace.json");
        std::ofstream out(path);
        obs::ChromeTraceOptions trace_options;
        trace_options.graph = &w.graph;
        obs::write_chrome_trace(out, &schedule, &recording,
                                &obs::SpanLog::global(), trace_options);
        std::cout << "wrote " << path << "\n";
      }
      if (cli.has("counters-out")) {
        write_counters_file(cli.get("counters-out", "counters.json"));
      }
      if (cli.has("prom-out")) {
        write_prom_file(cli.get("prom-out", "counters.prom"));
      }
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
