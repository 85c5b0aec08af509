// The traced run: per-layer numbers from spans the benchmark records around
// the calls into each layer's public functions, over a prefix of the timed
// list. Two phases, each interleaving its passes request by request:
//   1. the direct path untraced, then traced, then one round trip through a
//      one-worker svc::BatchEngine (two threads);
//   2. the direct path traced, a generation probe per stream arrival, then
//      one round trip through the server at one outstanding request (four
//      threads).
// Engine and server results are checked against the direct path's.
#include <algorithm>
#include <array>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>

#include "bench.hpp"
#include "hdlts/core/hdlts.hpp"
#include "hdlts/net/client.hpp"
#include "hdlts/net/server.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/error.hpp"
#include "hdlts/util/json.hpp"

namespace servebench {

namespace {

constexpr std::chrono::milliseconds kResponseTimeout{30000};

// Lanes of the span output (the Chrome trace tid).
constexpr int kLaneDirect = 1;        // direct path, server phase
constexpr int kLaneEngine = 2;        // engine round trips
constexpr int kLaneServer = 3;        // server round trips
constexpr int kLaneProbe = 4;         // stream-arrival generation probes
constexpr int kLaneDirectEngine = 5;  // direct path, engine phase
constexpr std::array<std::string_view, 5> kLaneNames = {
    "direct (server phase)", "engine round trip", "server round trip",
    "generation probe", "direct (engine phase)"};

/// Per-request sums of the direct path's layer spans, in microseconds.
struct Layers {
  double parse = 0, render = 0, generate = 0, probe = 0, build = 0;
  double sched_hdlts = 0, sched_heft = 0, sched_other = 0;
  double online = 0, stream_compile = 0, stream_run = 0;

  Layers& operator+=(const Layers& other) {
    parse += other.parse;
    render += other.render;
    generate += other.generate;
    probe += other.probe;
    build += other.build;
    sched_hdlts += other.sched_hdlts;
    sched_heft += other.sched_heft;
    sched_other += other.sched_other;
    online += other.online;
    stream_compile += other.stream_compile;
    stream_run += other.stream_run;
    return *this;
  }

  double scheduling() const {
    return sched_hdlts + sched_heft + sched_other + online + stream_compile +
           stream_run;
  }
  /// What an engine worker computes for the request.
  double compute() const { return generate + build + scheduling(); }
  /// Every layer call of the direct path (a probe repeats work inside
  /// parse, so it is not added again).
  double total() const { return parse + render + compute(); }
};

/// The Layers field each direct-path span adds to.
constexpr std::array<std::pair<std::string_view, double Layers::*>, 9>
    kLayerOf = {{
        {"net.parse", &Layers::parse},
        {"net.render", &Layers::render},
        {"workload.generate", &Layers::generate},
        {"sim.build", &Layers::build},
        {"sched.hdlts", &Layers::sched_hdlts},
        {"sched.heft", &Layers::sched_heft},
        {"core.online.run", &Layers::online},
        {"core.stream.compile", &Layers::stream_compile},
        {"core.stream.run", &Layers::stream_run},
    }};

void add_span(Layers& layers, std::string_view name, double us) {
  for (const auto& [span, field] : kLayerOf) {
    if (span == name) {
      layers.*field += us;
      return;
    }
  }
  if (name.rfind("sched.", 0) == 0) layers.sched_other += us;
}

/// Layer sums of the spans recorded since span index `first`.
Layers layers_of(const Tracer& tracer, std::size_t first) {
  Layers layers;
  const auto& spans = tracer.spans();
  for (std::size_t i = first; i < spans.size(); ++i) {
    add_span(layers, spans[i].name, spans[i].duration_us());
  }
  return layers;
}

/// A one-worker engine fed one request at a time. The engine calls
/// back once per scheduler (static) or once (online, stream), on its worker
/// thread.
class EnginePass {
 public:
  explicit EnginePass(const sched::Registry& registry)
      : engine_(registry,
                [this](const svc::BatchResult& result) { on_result(result); },
                options()) {}
  EnginePass(const EnginePass&) = delete;
  EnginePass& operator=(const EnginePass&) = delete;

  /// Parses `frame`, submits it and blocks until its last result callback.
  /// Returns the submit and last-callback times; `makespans` receives the
  /// results (NaN for a failed one).
  std::pair<Clock::time_point, Clock::time_point> round_trip(
      std::uint64_t id, const std::string& frame,
      std::vector<double>& makespans) {
    net::ParsedRequest parsed = net::parse_request(frame, net::Limits{});
    svc::WorkloadFn generate;
    svc::BatchRequest request;
    request.id = id;
    request.seed = parsed.seed;
    request.job = parsed.job;
    if (parsed.job == svc::BatchJob::kStream) {
      request.arrivals = &parsed.arrivals;
      request.stream_options = parsed.stream_options;
    } else {
      generate = [spec = *parsed.generator](std::uint64_t seed) {
        return net::make_workload(spec, seed);
      };
      request.generator = &generate;
      request.schedulers = parsed.schedulers;
      request.failures = parsed.failures;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      remaining_ = parsed.job == svc::BatchJob::kStatic
                       ? parsed.schedulers.size()
                       : 1;
      makespans_.clear();
    }
    const auto submitted = Clock::now();
    if (!engine_.submit(request)) {
      throw hdlts::Error("engine refused a request");
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
    makespans = makespans_;
    return {submitted, done_};
  }

  svc::BatchEngineStats finish() {
    engine_.shutdown();
    return engine_.stats();
  }

 private:
  static svc::BatchEngineOptions options() {
    svc::BatchEngineOptions options;
    options.threads = 1;
    options.queue_capacity = 4;
    return options;
  }

  void on_result(const svc::BatchResult& result) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    makespans_.push_back(result.ok ? result.makespan
                                   : std::numeric_limits<double>::quiet_NaN());
    if (--remaining_ == 0) {
      done_ = now;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_ = 0;      // guarded by mu_
  Clock::time_point done_;         // guarded by mu_
  std::vector<double> makespans_;  // guarded by mu_
  svc::BatchEngine engine_;  // last: its worker calls back into the above
};

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) throw hdlts::Error("cannot write spans to " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (std::size_t lane = 0; lane < kLaneNames.size(); ++lane) {
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << lane + 1 << ",\"args\":{\"name\":\"" << kLaneNames[lane]
        << "\"}},\n";
  }
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << util::json_number(s.start_us)
        << ",\"dur\":" << util::json_number(s.duration_us())
        << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw hdlts::Error("cannot write spans to " + path);
}

double mean_of(double sum, std::size_t count) {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace

RunResult run_traced(const WorkloadDef& def,
                     const std::vector<Request>& requests,
                     const std::string& spans_out) {
  const sched::Registry registry = core::default_registry();
  const std::size_t warmup = def.warmup;
  const std::size_t count =
      std::min(def.trace_requests, requests.size() - warmup);
  const std::size_t end = warmup + count;
  const auto index = [](std::size_t i) {
    return static_cast<std::uint32_t>(i);
  };

  DirectRunner direct(registry);
  DirectOutcome outcome;
  Tracer tracer;
  tracer.reserve(count * 24);
  const auto run_traced_direct = [&](std::size_t i, int lane,
                                     DirectOutcome& out) {
    const std::size_t first = tracer.spans().size();
    tracer.set_lane(lane);
    direct.run(requests[i], index(i), &tracer, false, out);
    return layers_of(tracer, first);
  };
  std::vector<char> failed(count, 0);

  // Phase 1 (two threads): per request, the direct path untraced and
  // traced, then one engine round trip. Interleaving puts a slow spell of
  // the host on all three alike.
  double untraced_s = 0.0, traced_s = 0.0, handoff_sum = 0.0;
  svc::BatchEngineStats engine_stats;
  {
    EnginePass engine(registry);
    std::vector<double> makespans;
    for (std::size_t i = 0; i < end; ++i) {
      if (i < warmup) {
        direct.run(requests[i], index(i), nullptr, false, outcome);
        engine.round_trip(i, requests[i].frame, makespans);
        continue;
      }
      // The second run of a request finds warm caches, so the order of
      // the untraced and traced runs alternates.
      Layers layers;
      for (int turn = 0; turn < 2; ++turn) {
        const auto t0 = Clock::now();
        if ((turn + i) % 2 == 0) {
          direct.run(requests[i], index(i), nullptr, false, outcome);
          untraced_s += seconds_between(t0, Clock::now());
        } else {
          layers = run_traced_direct(i, kLaneDirectEngine, outcome);
          traced_s += seconds_between(t0, Clock::now());
        }
      }
      const auto [submitted, done] =
          engine.round_trip(i, requests[i].frame, makespans);
      tracer.set_lane(kLaneEngine);
      tracer.record("svc.request", index(i), submitted, done);
      handoff_sum +=
          std::chrono::duration<double, std::micro>(done - submitted).count() -
          layers.compute();
      if (makespans != outcome.makespans) failed[i - warmup] = 1;
    }
    engine_stats = engine.finish();  // its worker exits before phase 2
  }

  // Phase 2 (four threads): per request, the traced direct path, which
  // gives the layer metrics, then one server round trip at one outstanding
  // request. Stream arrivals are generated inside net::parse_request, so
  // they are generated again, outside the request's span tree, to time
  // generation apart from parsing.
  net::ServerOptions server_options;
  server_options.engine_threads = 1;
  net::Server server(registry, server_options);
  server.start();
  net::Client client(server.port(), kResponseTimeout);
  for (std::size_t i = 0; i < warmup; ++i) client.request(requests[i].frame);
  std::vector<Layers> layers(count);
  std::vector<DirectOutcome> expected(count);
  std::vector<double> latency_us(count, 0.0);
  std::uint64_t threads = 0;
  for (std::size_t i = warmup; i < end; ++i) {
    const std::size_t k = i - warmup;
    layers[k] = run_traced_direct(i, kLaneDirect, expected[k]);
    for (const GeneratedWorkflow& wf : requests[i].arrivals) {
      std::optional<sim::Workload> probe;
      const auto t0 = Clock::now();
      probe.emplace(net::make_workload(wf.spec, wf.seed));
      const auto t1 = Clock::now();
      tracer.set_lane(kLaneProbe);
      tracer.record("workload.generate.probe", index(i), t0, t1);
      layers[k].probe += std::chrono::duration<double, std::micro>(t1 - t0)
                             .count();
    }
    const auto sent = Clock::now();
    const std::string response = client.request(requests[i].frame);
    const auto received = Clock::now();
    tracer.set_lane(kLaneServer);
    tracer.record("serve.request", index(i), sent, received);
    latency_us[k] =
        std::chrono::duration<double, std::micro>(received - sent).count();
    if (response != expected[k].response) failed[k] = 1;
    if (k % 64 == 0) threads = std::max(threads, proc_status_value("Threads"));
  }
  client.close();
  server.drain();
  const net::ServerStats stats = server.stats();
  const svc::BatchEngineStats server_engine = server.engine_stats();

  // Aggregate.
  Layers sum;
  double latency_sum = 0.0, tasks = 0, edges = 0, decisions = 0;
  double request_bytes = 0, response_bytes = 0;
  double hdlts_tasks = 0, heft_tasks = 0, executions = 0, lost = 0;
  std::size_t built = 0, online = 0, streams = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const Layers& l = layers[k];
    const DirectOutcome& e = expected[k];
    const Kind kind = requests[warmup + k].kind;
    sum += l;
    latency_sum += latency_us[k];
    tasks += static_cast<double>(e.tasks);
    edges += static_cast<double>(e.edges);
    decisions += static_cast<double>(e.decisions);
    request_bytes += static_cast<double>(requests[warmup + k].frame.size() + 1);
    response_bytes += static_cast<double>(e.response.size() + 1);
    if (l.sched_hdlts > 0) hdlts_tasks += static_cast<double>(e.tasks);
    if (l.sched_heft > 0) heft_tasks += static_cast<double>(e.tasks);
    if (kind == Kind::kOnline) {
      ++online;
      executions += static_cast<double>(e.executions);
      lost += static_cast<double>(e.lost_executions);
    }
    if (kind == Kind::kStream) ++streams;
    if (kind != Kind::kStream) ++built;
  }

  RunResult result;
  result.attempted = count;
  result.failed = static_cast<std::size_t>(
      std::count(failed.begin(), failed.end(), 1));
  const bool drained = stats.accepted == stats.completed && stats.queued == 0;
  const bool engines_balanced =
      engine_stats.submitted ==
          engine_stats.completed + engine_stats.cancelled &&
      server_engine.submitted ==
          server_engine.completed + server_engine.cancelled;
  result.correct = result.failed == 0 && drained && engines_balanced;

  const double n = static_cast<double>(count);
  // Stream generation runs inside parse; the probe moves it from net to
  // workload in the shares.
  const double net_us = sum.parse + sum.render - sum.probe;
  const double workload_us = sum.generate + sum.probe;
  result.metrics = {
      {"net.parse_us", sum.parse / n, "us"},
      {"net.render_us", sum.render / n, "us"},
      {"net.request_bytes", request_bytes / n, "bytes"},
      {"net.response_bytes", response_bytes / n, "bytes"},
      {"serve.overhead_us", (latency_sum - sum.total()) / n, "us"},
      {"serve.rejected", static_cast<double>(stats.rejected), "count"},
      {"svc.handoff_us", handoff_sum / n, "us"},
      {"svc.sched_failures",
       static_cast<double>(engine_stats.sched_failures +
                           server_engine.sched_failures),
       "count"},
      {"workload.generate_ms", workload_us / 1e3 / n, "ms"},
      {"workload.tasks", tasks / n, "count"},
      {"workload.edges", edges / n, "count"},
      {"sim.build_ms", mean_of(sum.build / 1e3, built), "ms"},
      {"sched.hdlts.ns_per_decision",
       hdlts_tasks > 0 ? sum.sched_hdlts * 1e3 / hdlts_tasks : 0.0, "ns"},
      {"sched.heft.ns_per_decision",
       heft_tasks > 0 ? sum.sched_heft * 1e3 / heft_tasks : 0.0, "ns"},
      {"sched.decisions", decisions / n, "count"},
      {"core.online.run_ms", mean_of(sum.online / 1e3, online), "ms"},
      {"core.online.lost_exec_ratio",
       executions > 0 ? lost / executions : 0.0, "ratio"},
      {"core.stream.compile_ms",
       mean_of(sum.stream_compile / 1e3, streams), "ms"},
      {"core.stream.run_ms", mean_of(sum.stream_run / 1e3, streams), "ms"},
      {"share.net", net_us / latency_sum, "ratio"},
      {"share.workload", workload_us / latency_sum, "ratio"},
      {"share.sim", sum.build / latency_sum, "ratio"},
      {"share.sched", sum.scheduling() / latency_sum, "ratio"},
      {"share.residual", (latency_sum - sum.total()) / latency_sum, "ratio"},
      {"trace.overhead_ratio", untraced_s / traced_s, "ratio"},
  };
  result.notes = {
      {"threads", std::to_string(threads)},
      {"engine_workers", std::to_string(server_options.engine_threads)},
      {"traced_requests", std::to_string(count)},
      {"spans", std::to_string(tracer.spans().size())},
      {"untraced_replay_s", std::to_string(untraced_s)},
      {"traced_replay_s", std::to_string(traced_s)},
      {"server_rejected", std::to_string(stats.rejected)},
  };
  if (!spans_out.empty()) {
    write_spans(spans_out, tracer);
    result.notes.emplace_back("spans_out", spans_out);
  }
  return result;
}

}  // namespace servebench
