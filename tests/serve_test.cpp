// End-to-end tests for the serve daemon (net::Server + net::Client over
// real loopback sockets): responses bit-identical to direct library runs,
// the error taxonomy on the wire, admission control under a pipelined
// burst, per-tenant fairness under a flooding tenant, graceful-drain
// accounting (accepted == completed), the Prometheus scrape escape hatch,
// and a connection-churn stress sized by HDLTS_SERVE_STRESS_CONNS for the
// CI ThreadSanitizer leg.
#include "hdlts/net/server.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/io/workload_io.hpp"
#include "hdlts/net/client.hpp"
#include "hdlts/net/protocol.hpp"
#include "hdlts/net/socket.hpp"
#include "hdlts/sched/registry.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/util/json_parse.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts {
namespace {

using net::Client;
using net::Server;
using net::ServerOptions;

const sched::Registry& shared_registry() {
  static const sched::Registry registry = core::default_registry();
  return registry;
}

/// The generator dialect used throughout: the server materialises the same
/// net::GeneratorSpec on an engine worker, so a direct make_workload with
/// the same spec/seed is the oracle.
std::string generator_json(std::size_t tasks, std::size_t cpus) {
  return "\"generator\":{\"kind\":\"random\",\"tasks\":" +
         std::to_string(tasks) + ",\"cpus\":" + std::to_string(cpus) + "}";
}

net::GeneratorSpec generator_spec(std::size_t tasks, std::size_t cpus) {
  net::GeneratorSpec spec;
  spec.tasks = tasks;
  spec.cpus = cpus;
  return spec;
}

TEST(ServeTest, AcceptedSocketsAreNonBlockingWithNagleOff) {
  // The server accepts every connection through net::accept_tcp. With Nagle
  // on, each response after the first of a pipelined burst would wait for
  // the client's delayed ACK.
  std::uint16_t port = 0;
  const net::Fd listener = net::listen_tcp(0, &port);
  const net::Fd client = net::connect_tcp(port);
  const net::Fd accepted = net::accept_tcp(listener.get());
  ASSERT_TRUE(accepted.valid());
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_EQ(nodelay, 1);
  EXPECT_NE(::fcntl(accepted.get(), F_GETFL, 0) & O_NONBLOCK, 0);
}

TEST(ServeTest, PingStatsAndMalformed) {
  Server server(shared_registry());
  server.start();
  Client client(server.port());

  EXPECT_EQ(client.request("{\"op\":\"ping\"}"), "{\"ok\":true,\"op\":\"ping\"}");

  const std::string stats = client.request("{\"op\":\"stats\"}");
  const util::JsonValue v = util::parse_json(stats);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("accepted")->as_number(), 0.0);
  EXPECT_EQ(v.find("active_sessions")->as_number(), 1.0);

  // Error taxonomy on the wire: malformed JSON and schema violations are
  // code 1, with id/tenant salvaged when readable.
  const std::string bad = client.request("this is not json");
  EXPECT_EQ(util::parse_json(bad).find("code")->as_number(), 1.0);
  const std::string unknown_op =
      client.request("{\"op\":\"nope\",\"id\":3,\"tenant\":\"t\"}");
  const util::JsonValue u = util::parse_json(unknown_op);
  EXPECT_EQ(u.find("code")->as_number(), 1.0);
  EXPECT_EQ(u.find("error")->as_string(), "MalformedRequest");
  EXPECT_EQ(u.find("id")->as_number(), 3.0);
  EXPECT_EQ(u.find("tenant")->as_string(), "t");

  // Over-limits is code 2.
  ServerOptions small;
  small.limits.max_schedulers = 1;
  Server limited(shared_registry(), small);
  limited.start();
  Client c2(limited.port());
  const std::string over = c2.request(
      "{\"op\":\"submit\"," + generator_json(10, 3) +
      ",\"schedulers\":[\"heft\",\"cpop\"]}");
  EXPECT_EQ(util::parse_json(over).find("code")->as_number(), 2.0);

  server.drain();
  limited.drain();
}

TEST(ServeTest, StaticSubmitBitIdenticalToDirectRun) {
  Server server(shared_registry());
  server.start();
  Client client(server.port());

  const std::uint64_t seed = 42;
  const std::string reply = client.request(
      "{\"op\":\"submit\",\"id\":1,\"seed\":" + std::to_string(seed) + "," +
      generator_json(30, 4) + ",\"schedulers\":[\"hdlts\",\"heft\"]}");

  // Oracle: the identical generator run + schedule, rendered through the
  // same protocol functions — the full results array must match byte for
  // byte (docs/SERVICE.md's bit-identity promise).
  const sim::Workload workload =
      net::make_workload(generator_spec(30, 4), seed);
  const sim::Problem problem(workload);
  std::vector<std::string> entries;
  for (const char* name : {"hdlts", "heft"}) {
    const double makespan =
        shared_registry().make(name)->schedule(problem).makespan();
    entries.push_back(net::render_static_entry(name, true, makespan, ""));
  }
  std::string expect = "\"results\":[" + entries[0] + "," + entries[1] + "]";
  EXPECT_NE(reply.find(expect), std::string::npos) << reply;
  EXPECT_EQ(reply.rfind("{\"ok\":true,\"id\":1,", 0), 0u) << reply;

  // An unknown scheduler fails its entry, not the whole request.
  const std::string partial = client.request(
      "{\"op\":\"submit\",\"seed\":1," + generator_json(10, 3) +
      ",\"schedulers\":[\"heft\",\"mystery\"]}");
  const util::JsonValue v = util::parse_json(partial);
  EXPECT_TRUE(v.find("ok")->as_bool());
  const auto& results = v.find("results")->as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].find("ok")->as_bool());
  EXPECT_FALSE(results[1].find("ok")->as_bool());

  server.drain();
}

TEST(ServeTest, InlineWorkloadMatchesGeneratorPath) {
  // The same workload submitted inline (io text format) and by generator
  // spec must produce identical makespans — the server defers both to the
  // engine worker through the same WorkloadFn seam.
  Server server(shared_registry());
  server.start();
  Client client(server.port());

  const std::uint64_t seed = 7;
  const sim::Workload workload =
      net::make_workload(generator_spec(20, 3), seed);
  std::ostringstream text;
  io::write_workload(text, workload);

  const std::string by_generator = client.request(
      "{\"op\":\"submit\",\"seed\":" + std::to_string(seed) + "," +
      generator_json(20, 3) + ",\"schedulers\":[\"heft\"]}");
  const std::string inline_reply = client.request(
      "{\"op\":\"submit\",\"seed\":" + std::to_string(seed) +
      ",\"workload\":\"" + util::json_escape(text.str()) +
      "\",\"schedulers\":[\"heft\"]}");
  EXPECT_EQ(
      util::parse_json(by_generator).find("results")->as_array()[0]
          .find("makespan")->as_number(),
      util::parse_json(inline_reply).find("results")->as_array()[0]
          .find("makespan")->as_number());

  server.drain();
}

TEST(ServeTest, OnlineSubmitBitIdenticalToRunOnline) {
  Server server(shared_registry());
  server.start();
  Client client(server.port());

  const std::uint64_t seed = 11;
  const sim::Workload workload =
      net::make_workload(generator_spec(25, 4), seed);
  const double clean = core::Hdlts().schedule(sim::Problem(workload)).makespan();
  const std::vector<core::ProcFailure> failures{{0, clean * 0.5}};
  const core::OnlineResult expected = core::run_online(workload, failures);

  const std::string reply = client.request(
      "{\"op\":\"submit\",\"kind\":\"online\",\"seed\":" +
      std::to_string(seed) + "," + generator_json(25, 4) +
      ",\"failures\":[{\"proc\":0,\"time\":" +
      util::json_number(failures[0].time) + "}]}");
  const std::string expect =
      "\"completed\":" + std::string(expected.completed ? "true" : "false") +
      ",\"makespan\":" + util::json_number(expected.makespan) +
      ",\"executions\":" + std::to_string(expected.executions.size()) +
      ",\"lost_executions\":" + std::to_string(expected.lost_executions);
  EXPECT_NE(reply.find(expect), std::string::npos) << reply;

  server.drain();
}

TEST(ServeTest, StreamSubmitBitIdenticalToRunStream) {
  Server server(shared_registry());
  server.start();
  Client client(server.port());

  const std::uint64_t seed = 5;
  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({net::make_workload(generator_spec(15, 3), seed), 0.0});
  arrivals.push_back(
      {net::make_workload(generator_spec(15, 3), seed + 1), 25.0});
  const core::StreamResult expected = core::run_stream(arrivals);

  const std::string reply = client.request(
      "{\"op\":\"submit\",\"kind\":\"stream\",\"seed\":" +
      std::to_string(seed) + ",\"arrivals\":[{" + generator_json(15, 3) +
      "},{" + generator_json(15, 3) + ",\"seed\":" + std::to_string(seed + 1) +
      ",\"arrival\":25}]}");
  // The full rendered response (minus id/tenant context) is the oracle.
  const std::string expect_suffix =
      net::render_stream_response(std::nullopt, "", seed, expected);
  // Our reply carries tenant "default"; compare from "kind" onwards.
  const std::size_t cut = expect_suffix.find("\"kind\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_NE(reply.find(expect_suffix.substr(
                cut, expect_suffix.size() - cut - 2)),  // strip "}\n"
            std::string::npos)
      << reply;

  server.drain();
}

TEST(ServeTest, QueueFullUnderPipelinedBurst) {
  // One engine worker, a one-slot ring, and a one-slot tenant queue: a
  // pipelined burst of slow requests must trip admission control with
  // QueueFull while the earlier requests still complete.
  ServerOptions options;
  options.engine_threads = 1;
  options.engine_queue_capacity = 1;
  options.fair.per_tenant_capacity = 1;
  Server server(shared_registry(), options);
  server.start();
  Client client(server.port());

  constexpr int kBurst = 10;
  for (int i = 0; i < kBurst; ++i) {
    client.send_line("{\"op\":\"submit\",\"id\":" + std::to_string(i) + "," +
                     generator_json(1500, 8) + ",\"schedulers\":[\"heft\"]}");
  }
  int ok = 0;
  int queue_full = 0;
  for (int i = 0; i < kBurst; ++i) {
    const util::JsonValue v = util::parse_json(client.recv_line());
    if (v.find("ok")->as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(v.find("code")->as_number(), 3.0);
      EXPECT_EQ(v.find("error")->as_string(), "QueueFull");
      ++queue_full;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(queue_full, 0);
  EXPECT_EQ(ok + queue_full, kBurst);

  server.drain();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(queue_full));
}

TEST(ServeTest, FloodingTenantCannotStarveLightTenant) {
  // Tenant "flood" pipelines a deep backlog on one connection; tenant
  // "light" then submits a single request. DRR admission means light's
  // request is dispatched within one round — its response must arrive well
  // before the flood's backlog finishes (checked via the stats verb, which
  // the event loop answers immediately).
  ServerOptions options;
  options.engine_threads = 1;
  options.fair.per_tenant_capacity = 64;
  Server server(shared_registry(), options);
  server.start();

  Client flood(server.port());
  constexpr int kFlood = 40;
  for (int i = 0; i < kFlood; ++i) {
    flood.send_line("{\"op\":\"submit\",\"tenant\":\"flood\",\"id\":" +
                    std::to_string(i) + "," + generator_json(400, 6) +
                    ",\"schedulers\":[\"heft\"]}");
  }
  Client light(server.port());
  const std::string reply = light.request(
      "{\"op\":\"submit\",\"tenant\":\"light\",\"id\":999," +
      generator_json(10, 3) + ",\"schedulers\":[\"heft\"]}");
  EXPECT_TRUE(util::parse_json(reply).find("ok")->as_bool()) << reply;

  // At the moment light's reply arrived, the flood backlog must not have
  // fully completed — light was not served last.
  const util::JsonValue stats =
      util::parse_json(light.request("{\"op\":\"stats\"}"));
  EXPECT_LT(stats.find("completed")->as_number(), kFlood + 1.0);

  for (int i = 0; i < kFlood; ++i) {
    EXPECT_TRUE(util::parse_json(flood.recv_line()).find("ok")->as_bool());
  }
  server.drain();
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(kFlood + 1));
}

/// First sample value of a metric in a Prometheus exposition body; -1 when
/// absent. (Totals are deltas in these tests: the registry is process-global
/// and other tests in this binary bump the same counters.)
double metric_value(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return -1.0;
}

TEST(ServeTest, MetricsScrape) {
  Server server(shared_registry());
  server.start();
  const std::string before = Client::scrape_metrics(server.port());

  Client client(server.port());
  client.request("{\"op\":\"submit\",\"seed\":1," + generator_json(10, 3) +
                 ",\"schedulers\":[\"heft\"]}");
  client.request("not json");

  const std::string body = Client::scrape_metrics(server.port());
  EXPECT_EQ(metric_value(body, "svc_serve_accepted_total") -
                metric_value(before, "svc_serve_accepted_total"),
            1.0);
  EXPECT_EQ(metric_value(body, "svc_serve_completed_total") -
                metric_value(before, "svc_serve_completed_total"),
            1.0);
  EXPECT_EQ(metric_value(body, "svc_serve_rejected_total") -
                metric_value(before, "svc_serve_rejected_total"),
            1.0);
  EXPECT_NE(body.find("# TYPE svc_serve_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(body.find("svc_serve_tenant_queue_depth_default"),
            std::string::npos);

  server.drain();
}

TEST(ServeTest, DrainVerbAndInvariants) {
  Server server(shared_registry());
  server.start();
  Client client(server.port());
  for (int i = 0; i < 4; ++i) {
    client.send_line("{\"op\":\"submit\",\"id\":" + std::to_string(i) +
                     ",\"seed\":" + std::to_string(i) + "," +
                     generator_json(20, 3) + ",\"schedulers\":[\"heft\"]}");
  }
  client.send_line("{\"op\":\"drain\"}");
  // Every admitted submit still gets its response, then the drain ack
  // (responses flush in order on one session).
  int submit_replies = 0;
  bool drain_ack = false;
  for (int i = 0; i < 5; ++i) {
    const util::JsonValue v = util::parse_json(client.recv_line());
    if (v.find("op") != nullptr && v.find("op")->as_string() == "drain") {
      drain_ack = true;
    } else if (v.find("ok")->as_bool()) {
      ++submit_replies;
    }
  }
  EXPECT_TRUE(drain_ack);
  EXPECT_EQ(submit_replies, 4);
  server.wait();

  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.queued, 0u);
  const svc::BatchEngineStats engine = server.engine_stats();
  EXPECT_EQ(engine.submitted, engine.completed + engine.cancelled);

  // Draining servers refuse new connections; submits on live sessions get
  // QueueFull("server is draining") — covered by the churn test's tail.
}

TEST(ServeTest, OrphanedSessionStillCountsCompleted) {
  // A client that disconnects before reading its response must not break
  // the accepted == completed invariant; the response is counted orphaned.
  Server server(shared_registry());
  server.start();
  {
    Client client(server.port());
    client.send_line("{\"op\":\"submit\",\"seed\":3," + generator_json(200, 4) +
                     ",\"schedulers\":[\"heft\"]}");
    client.close();  // gone before the result lands
  }
  // Wait until the event loop has admitted the request (an immediate drain
  // could close the listener before the backlogged connection is accepted);
  // the EOF is processed in the same read pass, so the session is already
  // gone when the engine's result arrives.
  for (int i = 0; i < 5000 && server.stats().accepted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.drain();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.orphaned, 1u);
}

TEST(ServeStress, ConnectionChurn) {
  // Sized by HDLTS_SERVE_STRESS_CONNS (the CI TSan leg scales it up): many
  // short-lived concurrent connections, a mix of clean request/response
  // cycles and rude disconnects, racing the event loop, dispatcher, and
  // engine workers. The drain invariants must survive all of it.
  const auto conns = static_cast<int>(
      util::env_int("HDLTS_SERVE_STRESS_CONNS", 24));
  ServerOptions options;
  options.engine_threads = 2;
  Server server(shared_registry(), options);
  server.start();

  constexpr int kThreads = 4;
  std::atomic<int> next{0};
  std::atomic<int> clean_replies{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= conns) return;
        try {
          Client client(server.port());
          client.send_line("{\"op\":\"submit\",\"id\":" + std::to_string(i) +
                           ",\"tenant\":\"t" + std::to_string(i % 3) +
                           "\",\"seed\":" + std::to_string(i) + "," +
                           generator_json(15 + (i % 3) * 10, 3) +
                           ",\"schedulers\":[\"heft\"]}");
          if (i % 4 == 0) continue;  // rude disconnect: orphan the result
          const util::JsonValue v = util::parse_json(client.recv_line());
          if (v.find("ok")->as_bool()) {
            clean_replies.fetch_add(1);
          }
        } catch (const Error&) {
          // Accept loss mid-churn (e.g. max_sessions); invariants are
          // checked after the drain.
        }
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  server.drain();

  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed);
  EXPECT_GE(stats.completed,
            static_cast<std::uint64_t>(clean_replies.load()));
  EXPECT_EQ(stats.queued, 0u);
  const svc::BatchEngineStats engine = server.engine_stats();
  EXPECT_EQ(engine.submitted, engine.completed + engine.cancelled);
  EXPECT_EQ(engine.submitted, stats.accepted);
}

}  // namespace
}  // namespace hdlts
