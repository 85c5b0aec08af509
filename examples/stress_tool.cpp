// Config-driven soak harness: streams a mixed static/online scheduling
// workload through svc::BatchEngine for a configured duration while
// obs::RuntimeMonitor samples throughput, latency percentiles, and process
// RSS into a JSONL timeline and judges the run against declarative SLO
// gates. Exit code 0 = every gate passed (or warned), 1 = SLO breach,
// 2 = bad configuration. Modeled on WiredTiger's cppsuite test harness:
// one flat "key=value,key=value" string describes the whole scenario.
//
//   stress_tool --config='duration=30,threads=4,online_fraction=0.4,
//                         slo_min_rps=50,timeline=soak.jsonl,prom=soak.prom'
//
// The full config-key reference lives in docs/OBSERVABILITY.md. Every
// produced schedule is validated (BatchEngineOptions::check_schedules) and
// every online result is replayed through check::OnlineValidator against
// its fault plan, so a soak doubles as a long-running correctness test:
// any violation trips the zero-violation SLO gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hdlts/check/faultplan.hpp"
#include "hdlts/check/validate.hpp"
#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/net/client.hpp"
#include "hdlts/net/protocol.hpp"
#include "hdlts/net/server.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/monitor.hpp"
#include "hdlts/obs/prometheus.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/cli.hpp"
#include "hdlts/util/config.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/workload/fft.hpp"
#include "hdlts/workload/forkjoin.hpp"
#include "hdlts/workload/md.hpp"
#include "hdlts/workload/montage.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace {

using namespace hdlts;

void usage(std::ostream& os) {
  os << "usage: stress_tool [--config=KEY=V,KEY=V,...] [--config-file=PATH]\n"
        "\n"
        "Runs a config-driven soak of the batch scheduling engine under the\n"
        "runtime monitor and exits nonzero when an SLO gate fails.\n"
        "Key reference: docs/OBSERVABILITY.md (workload mix, SLO gates,\n"
        "output paths). --config-file reads the same key=value string from\n"
        "a file; --config appends to it (later keys must not repeat).\n";
}

/// One pre-generated scheduling problem plus its failure scenarios. The
/// pool is built up front so the submission loop allocates nothing per
/// request beyond what the engine's ring slots recycle.
struct PooledProblem {
  std::unique_ptr<sim::Workload> workload;  // Workload is not default-ctible
  std::unique_ptr<sim::Problem> problem;
  double clean_makespan = 0.0;
  std::vector<check::FaultPlan> plans;
};

/// Weighted choice over the five DAG families.
struct Mix {
  double random = 1.0, fft = 1.0, montage = 1.0, md = 1.0, forkjoin = 1.0;
  double total() const { return random + fft + montage + md + forkjoin; }
};

sim::Workload make_pool_workload(const Mix& mix, util::Rng& rng,
                                 std::size_t tasks_min, std::size_t tasks_max,
                                 std::size_t procs_min, std::size_t procs_max,
                                 std::uint64_t seed, std::string* family) {
  workload::CostParams costs;
  costs.num_procs = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(procs_min),
      static_cast<std::int64_t>(procs_max)));
  const std::size_t tasks = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(tasks_min),
      static_cast<std::int64_t>(tasks_max)));
  double pick = rng.uniform(0.0, mix.total());
  if ((pick -= mix.random) < 0.0) {
    *family = "random";
    workload::RandomDagParams params;
    params.num_tasks = tasks;
    params.costs = costs;
    return workload::random_workload(params, seed);
  }
  if ((pick -= mix.fft) < 0.0) {
    *family = "fft";
    workload::FftParams params;
    // Smallest power of two whose FFT graph reaches the drawn task budget:
    // m points -> 2(m-1)+1 + m*log2(m) tasks.
    params.points = 4;
    while (workload::fft_task_count(params.points * 2) <= tasks &&
           params.points < 64) {
      params.points *= 2;
    }
    params.costs = costs;
    return workload::fft_workload(params, seed);
  }
  if ((pick -= mix.montage) < 0.0) {
    *family = "montage";
    workload::MontageParams params;
    params.num_nodes = std::max<std::size_t>(tasks, 13);
    params.costs = costs;
    return workload::montage_workload(params, seed);
  }
  if ((pick -= mix.md) < 0.0) {
    *family = "md";
    workload::MdParams params;
    params.costs = costs;
    return workload::md_workload(params, seed);
  }
  *family = "forkjoin";
  workload::ForkJoinParams params;
  params.chains = std::max<std::size_t>(2, tasks / 8);
  params.length = 6;
  params.costs = costs;
  return workload::forkjoin_workload(params, seed);
}

/// One pre-computed request scenario for the serve-mode soak: the submit
/// frame a client sends (tenant/id filled in per send) plus the substring
/// every correct response must contain. The expectation is computed by
/// running the same generator spec directly — the daemon path must be
/// bit-identical to the library path, so a single %.17g makespan digit of
/// drift is a soak failure.
struct ServeScenario {
  std::string request_body;  ///< frame minus the leading {"op","id","tenant"
  std::string expect;        ///< required response substring
};

std::string generator_json(const net::GeneratorSpec& spec) {
  std::string out = "\"generator\":{\"kind\":\"" + spec.kind + "\"";
  out += ",\"tasks\":" + std::to_string(spec.tasks);
  out += ",\"cpus\":" + std::to_string(spec.cpus);
  out += "}";
  return out;
}

std::vector<ServeScenario> make_serve_scenarios(
    const sched::Registry& registry, std::size_t count,
    const std::vector<std::string>& schedulers, double online_fraction,
    std::size_t tasks_min, std::size_t tasks_max, std::size_t procs_min,
    std::size_t procs_max, std::uint64_t seed) {
  std::vector<ServeScenario> scenarios;
  scenarios.reserve(count);
  util::Rng rng(util::derive_seed(seed, 10));
  for (std::size_t i = 0; i < count; ++i) {
    net::GeneratorSpec spec;  // random-DAG family, defaults otherwise
    spec.tasks = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(tasks_min),
        static_cast<std::int64_t>(tasks_max)));
    spec.cpus = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(procs_min),
        static_cast<std::int64_t>(procs_max)));
    // Masked to 32 bits: the wire protocol carries seeds as exact JSON
    // integers, so stay well inside the parser's integer range.
    const std::uint64_t wl_seed = util::derive_seed(seed, 11, i) & 0xffffffffu;
    const sim::Workload workload = net::make_workload(spec, wl_seed);

    ServeScenario scenario;
    if (rng.uniform() < online_fraction) {
      // One mid-run failure, timed off the clean HDLTS makespan.
      const sim::Problem problem(workload);
      const double clean = core::Hdlts().schedule(problem).makespan();
      const std::vector<core::ProcFailure> failures{{0, clean * 0.5}};
      const core::ProcFailure& failure = failures.front();
      const core::OnlineResult expected = core::run_online(workload, failures);
      scenario.request_body =
          ",\"kind\":\"online\",\"seed\":" + std::to_string(wl_seed) + "," +
          generator_json(spec) + ",\"failures\":[{\"proc\":0,\"time\":" +
          util::json_number(failure.time) + "}]}";
      scenario.expect =
          "\"completed\":" +
          std::string(expected.completed ? "true" : "false") +
          ",\"makespan\":" + util::json_number(expected.makespan);
    } else {
      const sim::Problem problem(workload);
      std::vector<std::string> entries;
      for (const std::string& name : schedulers) {
        const double makespan =
            registry.make(name)->schedule(problem).makespan();
        entries.push_back(net::render_static_entry(name, true, makespan, ""));
      }
      std::string expect = "\"results\":[";
      for (std::size_t e = 0; e < entries.size(); ++e) {
        if (e > 0) expect += ',';
        expect += entries[e];
      }
      expect += "]";
      std::string names;
      for (const std::string& name : schedulers) {
        if (!names.empty()) names += ',';
        names += "\"" + name + "\"";
      }
      scenario.request_body =
          ",\"kind\":\"static\",\"seed\":" + std::to_string(wl_seed) + "," +
          generator_json(spec) + ",\"schedulers\":[" + names + "]}";
      scenario.expect = expect;
    }
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.get_bool("help", false)) {
    usage(std::cout);
    return 0;
  }

  // --config-file first, --config appended: the CLI string can override
  // nothing (duplicate keys throw), it can only add.
  std::string text;
  const std::string config_file = cli.get("config-file", "");
  if (!config_file.empty()) {
    std::ifstream in(config_file);
    if (!in) {
      std::cerr << "stress_tool: cannot read config file '" << config_file
                << "'\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
    // A config file may use newlines as separators for readability.
    for (char& c : text) {
      if (c == '\n' || c == '\r') c = ',';
    }
  }
  const std::string config_arg = cli.get("config", "");
  if (!config_arg.empty()) {
    if (!text.empty()) text += ",";
    text += config_arg;
  }

  int exit_code = 0;
  try {
    util::Config config(text);

    const double duration_s = config.get_double("duration", 10.0);
    const std::size_t threads =
        static_cast<std::size_t>(config.get_int("threads", 2));
    const std::size_t queue_cap =
        static_cast<std::size_t>(config.get_int("queue_cap", 256));
    Mix mix;
    mix.random = config.get_double("mix_random", 1.0);
    mix.fft = config.get_double("mix_fft", 1.0);
    mix.montage = config.get_double("mix_montage", 1.0);
    mix.md = config.get_double("mix_md", 1.0);
    mix.forkjoin = config.get_double("mix_forkjoin", 1.0);
    const std::size_t tasks_min =
        static_cast<std::size_t>(config.get_int("tasks_min", 30));
    const std::size_t tasks_max =
        static_cast<std::size_t>(config.get_int("tasks_max", 80));
    const std::size_t procs_min =
        static_cast<std::size_t>(config.get_int("procs_min", 3));
    const std::size_t procs_max =
        static_cast<std::size_t>(config.get_int("procs_max", 8));
    const std::vector<std::string> schedulers =
        config.get_list("schedulers", "heft+cpop+peft");
    const double online_fraction =
        config.get_double("online_fraction", 0.3);
    const double arrival_rate = config.get_double("arrival_rate", 0.0);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(config.get_int("seed", 1));
    const bool check = config.get_bool("check", true);
    const std::size_t num_problems =
        static_cast<std::size_t>(config.get_int("problems", 12));
    const std::int64_t monitor_period_ms =
        config.get_int("monitor_period", 1000);
    const std::string timeline_path = config.get_string("timeline", "");
    const std::string prom_path = config.get_string("prom", "");
    const std::string counters_path = config.get_string("counters", "");
    const double slo_min_rps = config.get_double("slo_min_rps", 0.0);
    const double slo_max_p99_ms = config.get_double("slo_max_p99_ms", 0.0);
    const double slo_max_rss_growth =
        config.get_double("slo_max_rss_growth", 0.0);
    const std::int64_t slo_max_check_violations =
        config.get_int("slo_max_check_violations", 0);
    // serve=1 runs the same soak through the loopback daemon instead of
    // submitting to the engine in-process: an ephemeral net::Server is
    // started and serve_clients worker threads drive it over real sockets,
    // differentially checking every reply against a direct library run.
    const bool serve = config.get_bool("serve", false);
    const int serve_clients =
        static_cast<int>(config.get_int("serve_clients", 2));

    const std::vector<std::string> unused = config.unused_keys();
    if (!unused.empty()) {
      std::cerr << "stress_tool: unknown config key(s):";
      for (const std::string& k : unused) std::cerr << " '" << k << "'";
      std::cerr << " (see docs/OBSERVABILITY.md for the reference)\n";
      return 2;
    }
    if (duration_s <= 0.0 || threads == 0 || queue_cap == 0 ||
        num_problems == 0 || mix.total() <= 0.0 || tasks_min > tasks_max ||
        procs_min < 2 || procs_min > procs_max || monitor_period_ms <= 0 ||
        online_fraction < 0.0 || online_fraction > 1.0 ||
        schedulers.empty()) {
      std::cerr << "stress_tool: config out of range (duration/threads/"
                   "queue_cap/problems positive, procs_min >= 2, "
                   "tasks_min <= tasks_max, online_fraction in [0,1], "
                   ">= 1 scheduler)\n";
      return 2;
    }
    if (serve && serve_clients <= 0) {
      std::cerr << "stress_tool: serve_clients must be positive\n";
      return 2;
    }

    const sched::Registry registry = core::default_registry();

    if (serve) {
      // ---- Serve-mode soak: drive the loopback daemon over real sockets.
      // Each client thread owns one connection and one tenant and submits
      // pre-computed generator requests, checking every reply for the
      // byte-exact substring a direct library run produced. Any drift (or
      // any error frame) counts as a check violation and trips the
      // zero-violation SLO gate.
      obs::MetricRegistry& metrics = obs::MetricRegistry::global();
      obs::Counter& c_completed = metrics.counter("soak.requests_completed");
      obs::Counter& c_ok = metrics.counter("soak.results_ok");
      obs::Counter& c_violations = metrics.counter("soak.check_violations");

      std::cout << "stress_tool: generating " << num_problems
                << " serve scenarios..." << std::endl;
      const std::vector<ServeScenario> scenarios = make_serve_scenarios(
          registry, num_problems, schedulers, online_fraction, tasks_min,
          tasks_max, procs_min, procs_max, seed);

      net::ServerOptions server_options;
      server_options.engine_threads = threads;
      server_options.engine_queue_capacity = queue_cap;
      net::Server server(registry, server_options);
      server.start();
      std::cout << "stress_tool: daemon on 127.0.0.1:" << server.port()
                << ", " << serve_clients << " client(s)" << std::endl;

      std::ofstream timeline_file;
      obs::MonitorOptions monitor_options;
      monitor_options.period = std::chrono::milliseconds(monitor_period_ms);
      if (!timeline_path.empty()) {
        timeline_file.open(timeline_path);
        if (!timeline_file) {
          std::cerr << "stress_tool: cannot write timeline '" << timeline_path
                    << "'\n";
          return 2;
        }
        monitor_options.timeline = &timeline_file;
      }
      if (slo_min_rps > 0.0) {
        monitor_options.gates.push_back(
            {obs::SloKind::kMinCounterRate, "soak.requests_completed",
             slo_min_rps, "min_rps"});
      }
      if (slo_max_p99_ms > 0.0) {
        monitor_options.gates.push_back(
            {obs::SloKind::kMaxHistogramP99, "svc.serve.latency_ms",
             slo_max_p99_ms, "max_p99_ms.serve"});
      }
      if (slo_max_rss_growth > 0.0) {
        monitor_options.gates.push_back({obs::SloKind::kMaxRssGrowth, "",
                                         slo_max_rss_growth,
                                         "max_rss_growth"});
      }
      if (slo_max_check_violations >= 0) {
        monitor_options.gates.push_back(
            {obs::SloKind::kMaxCounterTotal, "soak.check_violations",
             static_cast<double>(slo_max_check_violations),
             "max_check_violations"});
      }
      obs::RuntimeMonitor monitor(std::move(monitor_options));
      monitor.start();

      const auto t0 = std::chrono::steady_clock::now();
      const auto deadline =
          t0 +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(duration_s));
      std::atomic<std::uint64_t> sent{0};
      std::vector<std::thread> clients;
      clients.reserve(static_cast<std::size_t>(serve_clients));
      for (int c = 0; c < serve_clients; ++c) {
        clients.emplace_back([&, c] {
          const std::string tenant = "t" + std::to_string(c);
          try {
            net::Client client(server.port());
            util::Rng rng(util::derive_seed(seed, 20,
                                            static_cast<std::uint64_t>(c)));
            std::uint64_t id = 0;
            while (std::chrono::steady_clock::now() < deadline) {
              const ServeScenario& scenario = scenarios[static_cast<
                  std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(scenarios.size()) - 1))];
              const std::string reply = client.request(
                  "{\"op\":\"submit\",\"id\":" + std::to_string(id) +
                  ",\"tenant\":\"" + tenant + "\"" + scenario.request_body);
              sent.fetch_add(1, std::memory_order_relaxed);
              c_completed.add(1);
              if (reply.find(scenario.expect) != std::string::npos) {
                c_ok.add(1);
              } else {
                c_violations.add(1);
                std::cerr << "stress_tool: " << tenant
                          << " reply mismatch: " << reply.substr(0, 200)
                          << "\n";
              }
              ++id;
            }
          } catch (const std::exception& e) {
            c_violations.add(1);
            std::cerr << "stress_tool: client " << tenant << ": " << e.what()
                      << "\n";
          }
        });
      }
      for (std::thread& t : clients) t.join();
      server.request_drain();
      server.wait();

      const obs::MonitorReport report = monitor.finish();
      const net::ServerStats sstats = server.stats();
      const svc::BatchEngineStats estats = server.engine_stats();
      std::cout << "stress_tool: serve soak: " << sent.load()
                << " sent, accepted " << sstats.accepted << ", completed "
                << sstats.completed << ", rejected " << sstats.rejected
                << ", orphaned " << sstats.orphaned << ", engine "
                << estats.submitted << "/" << estats.completed << "/"
                << estats.cancelled << ", " << c_violations.value()
                << " violations, " << report.samples << " monitor samples\n";
      bool invariants_ok = true;
      if (sstats.accepted != sstats.completed) {
        invariants_ok = false;
        std::cerr << "stress_tool: drain invariant violated: accepted "
                  << sstats.accepted << " != completed " << sstats.completed
                  << "\n";
      }
      if (estats.submitted != estats.completed + estats.cancelled) {
        invariants_ok = false;
        std::cerr << "stress_tool: engine invariant violated: submitted "
                  << estats.submitted << " != completed " << estats.completed
                  << " + cancelled " << estats.cancelled << "\n";
      }
      for (const obs::GateResult& gate : report.gates) {
        std::cout << "  gate " << gate.detail << "\n";
      }
      std::cout << "stress_tool: verdict "
                << obs::verdict_name(report.verdict) << std::endl;

      if (!counters_path.empty()) {
        std::ofstream out(counters_path);
        metrics.write_json(out);
        out << "\n";
      }
      if (!prom_path.empty()) {
        std::ofstream out(prom_path);
        obs::prometheus_render(metrics, out);
      }
      return (report.verdict == obs::Verdict::kFail || !invariants_ok) ? 1
                                                                       : 0;
    }

    // ---- Problem pool: five-family mix, clean makespans, fault plans.
    const sched::SchedulerPtr heft = registry.make("heft");
    std::vector<PooledProblem> pool(num_problems);
    util::Rng pool_rng(util::derive_seed(seed, 0));
    std::cout << "stress_tool: generating " << num_problems
              << " problems..." << std::endl;
    for (std::size_t i = 0; i < num_problems; ++i) {
      PooledProblem& p = pool[i];
      std::string family;
      p.workload = std::make_unique<sim::Workload>(
          make_pool_workload(mix, pool_rng, tasks_min, tasks_max, procs_min,
                             procs_max, util::derive_seed(seed, 1, i),
                             &family));
      p.problem = std::make_unique<sim::Problem>(*p.workload);
      p.clean_makespan = heft->schedule(*p.problem).makespan();
      p.plans = check::make_fault_plans(p.problem->num_procs(),
                                        p.clean_makespan,
                                        util::derive_seed(seed, 2, i));
      std::cout << "  problem " << i << ": " << family << ", "
                << p.problem->num_tasks() << " tasks, "
                << p.problem->num_procs() << " procs, "
                << p.plans.size() << " fault plans" << std::endl;
    }

    // ---- Soak counters (alongside the engine's svc.batch.* metrics).
    obs::MetricRegistry& metrics = obs::MetricRegistry::global();
    obs::Counter& c_completed = metrics.counter("soak.requests_completed");
    obs::Counter& c_ok = metrics.counter("soak.results_ok");
    obs::Counter& c_failed = metrics.counter("soak.results_failed");
    obs::Counter& c_violations = metrics.counter("soak.check_violations");
    obs::Counter& c_online = metrics.counter("soak.online_results");
    obs::Counter& c_static = metrics.counter("soak.static_results");
    // The engine registers this lazily, on the first violation; a clean run
    // would otherwise trip the gate's metric-never-observed guard.
    metrics.counter("svc.batch.check_violations");

    // Result callback (worker threads): count, and replay every online
    // result through the dynamic oracle. Request ids encode
    // problem_index * 1000 + plan_index so the callback can recover the
    // exact run_online inputs from the pool.
    const check::OnlineValidator validator;
    svc::ResultFn on_result = [&](const svc::BatchResult& r) {
      if (r.scheduler_index == 0) c_completed.add(1);
      if (!r.ok) {
        c_failed.add(1);
        // check_schedules failures arrive as !ok with the violation text.
        c_violations.add(1);
        return;
      }
      c_ok.add(1);
      if (r.online == nullptr) {
        c_static.add(1);
        return;
      }
      c_online.add(1);
      const PooledProblem& p = pool[r.id / 1000];
      const check::FaultPlan& plan = p.plans[r.id % 1000];
      if (check) {
        const auto violations =
            validator.validate(*p.workload, plan.failures, *r.online);
        if (!violations.empty()) {
          c_violations.add(violations.size());
          std::cerr << "stress_tool: online violation (problem "
                    << r.id / 1000 << ", " << plan.description
                    << "): " << violations.front() << "\n";
        }
        const bool must_complete =
            plan.expectation == check::PlanExpectation::kMustComplete;
        const bool must_fail =
            plan.expectation == check::PlanExpectation::kMustFail;
        if ((must_complete && !r.online->completed) ||
            (must_fail && r.online->completed)) {
          c_violations.add(1);
          std::cerr << "stress_tool: plan expectation violated ("
                    << plan.description << ")\n";
        }
      }
    };

    svc::BatchEngineOptions engine_options;
    engine_options.threads = threads;
    engine_options.queue_capacity = queue_cap;
    engine_options.check_schedules = check;
    svc::BatchEngine engine(registry, on_result, engine_options);

    // ---- Runtime monitor with the configured SLO gates.
    std::ofstream timeline_file;
    obs::MonitorOptions monitor_options;
    monitor_options.period = std::chrono::milliseconds(monitor_period_ms);
    if (!timeline_path.empty()) {
      timeline_file.open(timeline_path);
      if (!timeline_file) {
        std::cerr << "stress_tool: cannot write timeline '" << timeline_path
                  << "'\n";
        return 2;
      }
      monitor_options.timeline = &timeline_file;
    }
    if (slo_min_rps > 0.0) {
      monitor_options.gates.push_back(
          {obs::SloKind::kMinCounterRate, "soak.requests_completed",
           slo_min_rps, "min_rps"});
    }
    if (slo_max_p99_ms > 0.0) {
      for (const std::string& name : schedulers) {
        monitor_options.gates.push_back(
            {obs::SloKind::kMaxHistogramP99, "svc.batch.latency_ms." + name,
             slo_max_p99_ms, "max_p99_ms." + name});
      }
      if (online_fraction > 0.0) {
        monitor_options.gates.push_back(
            {obs::SloKind::kMaxHistogramP99,
             "svc.batch.latency_ms.hdlts-online", slo_max_p99_ms,
             "max_p99_ms.hdlts-online"});
      }
    }
    if (slo_max_rss_growth > 0.0) {
      monitor_options.gates.push_back({obs::SloKind::kMaxRssGrowth, "",
                                       slo_max_rss_growth,
                                       "max_rss_growth"});
    }
    if (slo_max_check_violations >= 0) {
      monitor_options.gates.push_back(
          {obs::SloKind::kMaxCounterTotal, "soak.check_violations",
           static_cast<double>(slo_max_check_violations),
           "max_check_violations"});
      monitor_options.gates.push_back(
          {obs::SloKind::kMaxCounterTotal, "svc.batch.check_violations",
           static_cast<double>(slo_max_check_violations),
           "max_engine_check_violations"});
    }
    obs::RuntimeMonitor monitor(std::move(monitor_options));
    monitor.start();

    // ---- Submission loop: mixed static/online until the deadline.
    util::Rng submit_rng(util::derive_seed(seed, 3));
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(duration_s));
    auto next_arrival = t0;
    std::uint64_t submitted = 0;
    svc::BatchRequest request;  // reused; the ring slot copies it
    while (std::chrono::steady_clock::now() < deadline) {
      const std::size_t problem_idx = static_cast<std::size_t>(
          submit_rng.uniform_int(0,
                                 static_cast<std::int64_t>(pool.size()) - 1));
      PooledProblem& p = pool[problem_idx];
      request.problem = p.problem.get();
      request.generator = nullptr;
      request.seed = submitted;
      if (submit_rng.uniform() < online_fraction) {
        const std::size_t plan_idx = static_cast<std::size_t>(
            submit_rng.uniform_int(
                0, static_cast<std::int64_t>(p.plans.size()) - 1));
        request.id = problem_idx * 1000 + plan_idx;
        request.job = svc::BatchJob::kOnline;
        request.schedulers.clear();
        request.failures = p.plans[plan_idx].failures;
      } else {
        request.id = problem_idx * 1000;
        request.job = svc::BatchJob::kStatic;
        request.schedulers = schedulers;
        request.failures.clear();
      }
      if (!engine.submit(request,
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             deadline - std::chrono::steady_clock::now()))) {
        break;  // deadline hit while blocked on backpressure
      }
      ++submitted;
      if (arrival_rate > 0.0) {
        next_arrival += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(1.0 / arrival_rate));
        std::this_thread::sleep_until(std::min(next_arrival, deadline));
      }
    }
    engine.wait_idle();
    engine.shutdown();

    // ---- Verdict and outputs.
    const obs::MonitorReport report = monitor.finish();
    const svc::BatchEngineStats stats = engine.stats();
    std::cout << "stress_tool: " << submitted << " submitted, "
              << stats.completed << " completed, " << c_violations.value()
              << " violations, " << report.samples << " monitor samples over "
              << report.elapsed_s << "s\n";
    for (const obs::GateResult& gate : report.gates) {
      std::cout << "  gate " << gate.detail << "\n";
    }
    std::cout << "stress_tool: verdict "
              << obs::verdict_name(report.verdict) << std::endl;

    if (!counters_path.empty()) {
      std::ofstream out(counters_path);
      metrics.write_json(out);
      out << "\n";
    }
    if (!prom_path.empty()) {
      std::ofstream out(prom_path);
      obs::prometheus_render(metrics, out);
    }
    exit_code = report.verdict == obs::Verdict::kFail ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "stress_tool: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }
  return exit_code;
}
