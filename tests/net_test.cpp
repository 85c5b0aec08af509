// Unit tests for the pure half of the serve stack: the strict JSON parser
// (util/json_parse.hpp), the JSONL framer, the wire protocol's parse +
// render functions, and the deficit-round-robin fair queue.
//
// The render tests are golden fixtures: they pin the exact bytes of every
// response verb and every error-taxonomy code (docs/SERVICE.md promises a
// fixed key order and %.17g doubles), so any wire-format drift fails here
// long before the e2e CI leg runs a real daemon.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "hdlts/io/workload_io.hpp"
#include "hdlts/net/fair_queue.hpp"
#include "hdlts/net/frame.hpp"
#include "hdlts/net/protocol.hpp"
#include "hdlts/sched/heft.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/util/json_parse.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts {
namespace {

using net::ErrorCode;
using net::FairQueue;
using net::FairQueueOptions;
using net::LineFramer;
using net::Limits;
using net::ParsedRequest;
using net::ProtocolError;
using net::Verb;
using util::JsonValue;

// ---------------------------------------------------------------- JSON parse

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(util::parse_json("null").is_null());
  EXPECT_TRUE(util::parse_json("true").as_bool());
  EXPECT_FALSE(util::parse_json("false").as_bool());
  EXPECT_EQ(util::parse_json("42").as_number(), 42.0);
  EXPECT_EQ(util::parse_json("-7.5e2").as_number(), -750.0);
  EXPECT_EQ(util::parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(util::parse_json("  3  ").as_number(), 3.0);
}

TEST(JsonParse, IntegersRoundTripExactly) {
  // Integers within the double-exact range must come back bit-exact — the
  // protocol carries seeds and ids this way.
  EXPECT_EQ(util::parse_json("4294967295").as_number(), 4294967295.0);
  EXPECT_EQ(util::parse_json("9007199254740992").as_number(),
            9007199254740992.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(util::parse_json(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  // \uXXXX decodes to UTF-8 (here: é = U+00E9 = 0xC3 0xA9).
  EXPECT_EQ(util::parse_json(R"("\u00e9")").as_string(), "\xc3\xa9");
}

TEST(JsonParse, NestedContainers) {
  const JsonValue v = util::parse_json(
      R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_TRUE(v.find("c")->find("d")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(util::parse_json(""), util::JsonParseError);
  EXPECT_THROW(util::parse_json("{"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("[1,]"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("{\"a\":1,}"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("'single'"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("01"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("1 2"), util::JsonParseError);  // trailing
  EXPECT_THROW(util::parse_json("nul"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("\"unterminated"), util::JsonParseError);
  EXPECT_THROW(util::parse_json("\"bad \x01 ctrl\""), util::JsonParseError);
}

TEST(JsonParse, RejectsDuplicateKeys) {
  EXPECT_THROW(util::parse_json(R"({"a":1,"a":2})"), util::JsonParseError);
}

TEST(JsonParse, DepthBounded) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += '[';
  for (int i = 0; i < 64; ++i) deep += ']';
  EXPECT_THROW(util::parse_json(deep), util::JsonParseError);
  // Within the default bound it parses fine.
  std::string ok;
  for (int i = 0; i < 16; ++i) ok += '[';
  for (int i = 0; i < 16; ++i) ok += ']';
  EXPECT_NO_THROW(util::parse_json(ok));
}

TEST(JsonParse, ErrorCarriesOffset) {
  try {
    util::parse_json("{\"a\": tru}");
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
  }
}

// ------------------------------------------------------------------- framing

TEST(LineFramerTest, SplitsAcrossFeeds) {
  LineFramer framer(1024);
  std::string frame;
  framer.feed("{\"op\":\"pi");
  EXPECT_EQ(framer.next(frame), LineFramer::Next::kNeedMore);
  framer.feed("ng\"}\n{\"op\":\"stats\"}\n");
  ASSERT_EQ(framer.next(frame), LineFramer::Next::kFrame);
  EXPECT_EQ(frame, "{\"op\":\"ping\"}");
  ASSERT_EQ(framer.next(frame), LineFramer::Next::kFrame);
  EXPECT_EQ(frame, "{\"op\":\"stats\"}");
  EXPECT_EQ(framer.next(frame), LineFramer::Next::kNeedMore);
}

TEST(LineFramerTest, StripsCarriageReturn) {
  LineFramer framer(1024);
  std::string frame;
  framer.feed("hello\r\n");
  ASSERT_EQ(framer.next(frame), LineFramer::Next::kFrame);
  EXPECT_EQ(frame, "hello");
}

TEST(LineFramerTest, OverflowIsPermanent) {
  LineFramer framer(8);
  std::string frame;
  framer.feed("0123456789");  // 10 > 8, no newline
  EXPECT_EQ(framer.next(frame), LineFramer::Next::kOverflow);
  EXPECT_TRUE(framer.overflowed());
  framer.feed("\nok\n");  // too late: a line protocol cannot resync
  EXPECT_EQ(framer.next(frame), LineFramer::Next::kOverflow);
}

TEST(LineFramerTest, ExactBoundIsNotOverflow) {
  LineFramer framer(5);
  std::string frame;
  framer.feed("12345\n");  // newline excluded from the bound
  ASSERT_EQ(framer.next(frame), LineFramer::Next::kFrame);
  EXPECT_EQ(frame, "12345");
}

// ------------------------------------------------------- golden render bytes

TEST(ProtocolRender, Pong) {
  EXPECT_EQ(net::render_pong(), "{\"ok\":true,\"op\":\"ping\"}\n");
}

TEST(ProtocolRender, DrainAck) {
  EXPECT_EQ(net::render_drain_ack(),
            "{\"ok\":true,\"op\":\"drain\",\"draining\":true}\n");
}

TEST(ProtocolRender, ErrorEveryCode) {
  EXPECT_EQ(net::render_error(ErrorCode::kMalformedRequest, "bad frame", 7,
                              "alice"),
            "{\"ok\":false,\"code\":1,\"error\":\"MalformedRequest\","
            "\"message\":\"bad frame\",\"id\":7,\"tenant\":\"alice\"}\n");
  EXPECT_EQ(net::render_error(ErrorCode::kOverLimits, "too big", std::nullopt,
                              ""),
            "{\"ok\":false,\"code\":2,\"error\":\"OverLimits\","
            "\"message\":\"too big\"}\n");
  EXPECT_EQ(net::render_error(ErrorCode::kQueueFull, "tenant queue full",
                              std::nullopt, "bob"),
            "{\"ok\":false,\"code\":3,\"error\":\"QueueFull\","
            "\"message\":\"tenant queue full\",\"tenant\":\"bob\"}\n");
  EXPECT_EQ(net::render_error(ErrorCode::kInternal, "boom", 1, ""),
            "{\"ok\":false,\"code\":4,\"error\":\"Internal\","
            "\"message\":\"boom\",\"id\":1}\n");
}

TEST(ProtocolRender, ErrorEscapesMessage) {
  EXPECT_EQ(net::render_error(ErrorCode::kMalformedRequest, "say \"hi\"\n",
                              std::nullopt, ""),
            "{\"ok\":false,\"code\":1,\"error\":\"MalformedRequest\","
            "\"message\":\"say \\\"hi\\\"\\n\"}\n");
}

TEST(ProtocolRender, Stats) {
  net::StatsSnapshot s;
  s.accepted = 10;
  s.rejected = 2;
  s.completed = 9;
  s.active_sessions = 3;
  s.queued = 1;
  s.engine_submitted = 9;
  s.engine_completed = 8;
  s.engine_cancelled = 1;
  s.draining = true;
  EXPECT_EQ(net::render_stats(s),
            "{\"ok\":true,\"op\":\"stats\",\"accepted\":10,\"rejected\":2,"
            "\"completed\":9,\"active_sessions\":3,\"queued\":1,"
            "\"engine_submitted\":9,\"engine_completed\":8,"
            "\"engine_cancelled\":1,\"draining\":true}\n");
}

TEST(ProtocolRender, StaticEntryAndResponse) {
  EXPECT_EQ(net::render_static_entry("heft", true, 12.5, ""),
            "{\"scheduler\":\"heft\",\"ok\":true,\"makespan\":12.5}");
  EXPECT_EQ(net::render_static_entry("nope", false, 0.0, "unknown scheduler"),
            "{\"scheduler\":\"nope\",\"ok\":false,"
            "\"error\":\"unknown scheduler\"}");
  const std::vector<std::string> entries = {
      net::render_static_entry("heft", true, 1.0, ""),
      net::render_static_entry("cpop", true, 2.0, ""),
  };
  EXPECT_EQ(net::render_static_response(5, "alice", 42, entries),
            "{\"ok\":true,\"id\":5,\"tenant\":\"alice\",\"kind\":\"static\","
            "\"seed\":42,\"results\":[{\"scheduler\":\"heft\",\"ok\":true,"
            "\"makespan\":1},{\"scheduler\":\"cpop\",\"ok\":true,"
            "\"makespan\":2}]}\n");
}

TEST(ProtocolRender, MakespanIsRoundTrippable) {
  // %.17g: the rendered token must parse back to the identical double.
  const double makespan = 476.63129587161808;
  const std::string entry = net::render_static_entry("x", true, makespan, "");
  const JsonValue v = util::parse_json(entry);
  EXPECT_EQ(v.find("makespan")->as_number(), makespan);
}

TEST(ProtocolRender, OnlineResponse) {
  core::OnlineResult result;
  result.executions.resize(3);
  result.makespan = 99.25;
  result.completed = true;
  result.lost_executions = 1;
  EXPECT_EQ(net::render_online_response(8, "t", 3, result),
            "{\"ok\":true,\"id\":8,\"tenant\":\"t\",\"kind\":\"online\","
            "\"seed\":3,\"completed\":true,\"makespan\":99.25,"
            "\"executions\":3,\"lost_executions\":1}\n");
}

TEST(ProtocolRender, StreamResponse) {
  core::StreamResult result;
  result.executions.resize(2);
  result.finish = {4.0, 6.5};
  result.flow_time = {4.0, 2.5};
  result.makespan = 6.5;
  EXPECT_EQ(net::render_stream_response(std::nullopt, "t", 0, result),
            "{\"ok\":true,\"tenant\":\"t\",\"kind\":\"stream\",\"seed\":0,"
            "\"makespan\":6.5,\"executions\":2,\"finish\":[4,6.5],"
            "\"flow_time\":[4,2.5]}\n");
}

TEST(ProtocolRender, MetricsHttp) {
  const std::string body = "# TYPE a counter\na 1\n";
  EXPECT_EQ(net::render_metrics_http(body),
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            "Content-Length: " +
                std::to_string(body.size()) +
                "\r\n"
                "Connection: close\r\n\r\n" +
                body);
}

TEST(ProtocolRender, MetricsRequestDetection) {
  EXPECT_TRUE(net::is_metrics_request("GET /metrics"));
  EXPECT_TRUE(net::is_metrics_request("GET /metrics HTTP/1.1"));
  EXPECT_FALSE(net::is_metrics_request("GET /other"));
  EXPECT_FALSE(net::is_metrics_request("{\"op\":\"ping\"}"));
}

// ------------------------------------------------------------- parse_request

ErrorCode parse_error_code(const std::string& frame,
                           const Limits& limits = {}) {
  try {
    net::parse_request(frame, limits);
  } catch (const ProtocolError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected ProtocolError for: " << frame;
  return ErrorCode::kInternal;
}

TEST(ParseRequest, ControlVerbs) {
  EXPECT_EQ(net::parse_request("{\"op\":\"ping\"}", {}).verb, Verb::kPing);
  EXPECT_EQ(net::parse_request("{\"op\":\"stats\"}", {}).verb, Verb::kStats);
  EXPECT_EQ(net::parse_request("{\"op\":\"drain\"}", {}).verb, Verb::kDrain);
  const ParsedRequest req =
      net::parse_request("{\"op\":\"ping\",\"id\":9,\"tenant\":\"t\"}", {});
  ASSERT_TRUE(req.id.has_value());
  EXPECT_EQ(*req.id, 9u);
  EXPECT_EQ(req.tenant, "t");
}

TEST(ParseRequest, StaticSubmitWithGenerator) {
  const ParsedRequest req = net::parse_request(
      "{\"op\":\"submit\",\"id\":1,\"seed\":7,"
      "\"generator\":{\"kind\":\"random\",\"tasks\":20,\"cpus\":3},"
      "\"schedulers\":[\"heft\",\"cpop\"]}",
      {});
  EXPECT_EQ(req.verb, Verb::kSubmit);
  EXPECT_EQ(req.job, svc::BatchJob::kStatic);
  EXPECT_EQ(req.seed, 7u);
  EXPECT_EQ(req.tenant, "default");
  ASSERT_TRUE(req.generator.has_value());
  EXPECT_EQ(req.generator->kind, "random");
  EXPECT_EQ(req.generator->tasks, 20u);
  EXPECT_EQ(req.generator->cpus, 3u);
  ASSERT_EQ(req.schedulers.size(), 2u);
  EXPECT_EQ(req.schedulers[0], "heft");
  EXPECT_FALSE(req.workload.has_value());
}

TEST(ParseRequest, InlineWorkloadRoundTrips) {
  // An inline workload travels as the io text format inside a JSON string;
  // the parsed copy must schedule bit-identically to the original.
  workload::RandomDagParams params;
  params.num_tasks = 16;
  params.costs.num_procs = 3;
  const sim::Workload original = workload::random_workload(params, 11);
  std::ostringstream text;
  io::write_workload(text, original);
  const std::string frame =
      "{\"op\":\"submit\",\"schedulers\":[\"heft\"],\"workload\":\"" +
      util::json_escape(text.str()) + "\"}";
  const ParsedRequest req = net::parse_request(frame, {});
  ASSERT_TRUE(req.workload.has_value());
  const sim::Problem a(original);
  const sim::Problem b(*req.workload);
  sched::Heft heft;
  EXPECT_EQ(heft.schedule(a).makespan(), heft.schedule(b).makespan());
}

TEST(ParseRequest, OnlineSubmitWithFailures) {
  const ParsedRequest req = net::parse_request(
      "{\"op\":\"submit\",\"kind\":\"online\","
      "\"generator\":{\"kind\":\"random\"},"
      "\"failures\":[{\"proc\":1,\"time\":5.5},{\"proc\":0}]}",
      {});
  EXPECT_EQ(req.job, svc::BatchJob::kOnline);
  ASSERT_EQ(req.failures.size(), 2u);
  EXPECT_EQ(req.failures[0].proc, 1u);
  EXPECT_EQ(req.failures[0].time, 5.5);
  EXPECT_EQ(req.failures[1].proc, 0u);
  EXPECT_EQ(req.failures[1].time, 0.0);
}

TEST(ParseRequest, StreamSubmitMaterializesArrivals) {
  const ParsedRequest req = net::parse_request(
      "{\"op\":\"submit\",\"kind\":\"stream\",\"seed\":2,\"policy\":\"fifo\","
      "\"arrivals\":["
      "{\"generator\":{\"kind\":\"random\",\"tasks\":10,\"cpus\":3}},"
      "{\"generator\":{\"kind\":\"random\",\"tasks\":10,\"cpus\":3},"
      "\"arrival\":4.5,\"seed\":9}]}",
      {});
  EXPECT_EQ(req.job, svc::BatchJob::kStream);
  ASSERT_EQ(req.arrivals.size(), 2u);
  EXPECT_EQ(req.arrivals[0].arrival, 0.0);
  EXPECT_EQ(req.arrivals[1].arrival, 4.5);
  // First arrival has no seed of its own, so it materialises with the
  // request seed — identical to a direct generator run.
  net::GeneratorSpec spec;
  spec.tasks = 10;
  spec.cpus = 3;
  EXPECT_EQ(req.arrivals[0].workload.graph.num_tasks(),
            net::make_workload(spec, 2).graph.num_tasks());
  EXPECT_EQ(req.stream_options.policy, core::StreamPolicy::kFifoEft);
}

TEST(ParseRequest, MalformedTaxonomy) {
  EXPECT_EQ(parse_error_code("not json"), ErrorCode::kMalformedRequest);
  EXPECT_EQ(parse_error_code("[1,2]"), ErrorCode::kMalformedRequest);
  EXPECT_EQ(parse_error_code("{}"), ErrorCode::kMalformedRequest);
  EXPECT_EQ(parse_error_code("{\"op\":\"nope\"}"),
            ErrorCode::kMalformedRequest);
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\"}"),
            ErrorCode::kMalformedRequest);  // neither workload nor generator
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"seed\":-1,"
                             "\"generator\":{},\"schedulers\":[\"heft\"]}"),
            ErrorCode::kMalformedRequest);
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"generator\":{},"
                             "\"schedulers\":[]}"),
            ErrorCode::kMalformedRequest);
  EXPECT_EQ(
      parse_error_code("{\"op\":\"submit\",\"kind\":\"online\","
                       "\"generator\":{},\"schedulers\":[\"heft\"]}"),
      ErrorCode::kMalformedRequest);  // schedulers on an online submit
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"generator\":{},"
                             "\"schedulers\":[\"heft\"],\"failures\":[]}"),
            ErrorCode::kMalformedRequest);  // failures on a static submit
  EXPECT_EQ(parse_error_code("{\"op\":\"ping\",\"tenant\":\"\"}"),
            ErrorCode::kMalformedRequest);
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"kind\":\"stream\","
                             "\"arrivals\":[]}"),
            ErrorCode::kMalformedRequest);
  // 2^32 + 1 does not fit a ProcId; truncated it would kill processor 1.
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"kind\":\"online\","
                             "\"generator\":{},"
                             "\"failures\":[{\"proc\":4294967297}]}"),
            ErrorCode::kMalformedRequest);
}

TEST(ParseRequest, RejectsNonFiniteArrival) {
  // 1e999 overflows to +inf in the number parser; the engine must never
  // see it.
  try {
    net::parse_request(
        "{\"op\":\"submit\",\"id\":3,\"kind\":\"stream\","
        "\"arrivals\":[{\"generator\":{},\"arrival\":1e999}]}",
        {});
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(net::render_error(e.code(), e.what(), e.id(), e.tenant()),
              "{\"ok\":false,\"code\":1,\"error\":\"MalformedRequest\","
              "\"message\":\"arrival.arrival must be finite and >= 0\","
              "\"id\":3}\n");
  }
}

TEST(ParseRequest, OverLimitsTaxonomy) {
  Limits limits;
  limits.max_schedulers = 1;
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"generator\":{},"
                             "\"schedulers\":[\"heft\",\"cpop\"]}",
                             limits),
            ErrorCode::kOverLimits);
  limits = {};
  limits.max_tasks = 10;
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\","
                             "\"generator\":{\"tasks\":100},"
                             "\"schedulers\":[\"heft\"]}",
                             limits),
            ErrorCode::kOverLimits);
  limits = {};
  limits.max_procs = 4;
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\","
                             "\"generator\":{\"cpus\":8},"
                             "\"schedulers\":[\"heft\"]}",
                             limits),
            ErrorCode::kOverLimits);
  limits = {};
  limits.max_failures = 1;
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"kind\":\"online\","
                             "\"generator\":{},\"failures\":["
                             "{\"proc\":0},{\"proc\":1}]}",
                             limits),
            ErrorCode::kOverLimits);
  limits = {};
  limits.max_arrivals = 1;
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\",\"kind\":\"stream\","
                             "\"arrivals\":[{\"generator\":{}},"
                             "{\"generator\":{}}]}",
                             limits),
            ErrorCode::kOverLimits);
  // Inline caps bind before the platform and cost table are built: both
  // texts are also malformed (a short cost row, a missing one), which a
  // check after the build would report instead.
  const auto inline_frame = [](const std::string& text) {
    return "{\"op\":\"submit\",\"schedulers\":[\"heft\"],"
           "\"workload\":\"" +
           util::json_escape(text) + "\"}";
  };
  EXPECT_EQ(parse_error_code(inline_frame("workflow 1\ntask 0 a 1\n"
                                          "platform 300\ncost 0 1\n")),
            ErrorCode::kOverLimits);
  limits = {};
  limits.max_tasks = 1;
  EXPECT_EQ(parse_error_code(inline_frame("workflow 2\ntask 0 a 1\n"
                                          "task 1 b 1\nplatform 1\n"
                                          "cost 0 1\n"),
                             limits),
            ErrorCode::kOverLimits);
}

TEST(ParseRequest, ErrorSalvagesIdAndTenant) {
  try {
    net::parse_request(
        "{\"op\":\"submit\",\"id\":77,\"tenant\":\"alice\",\"kind\":\"bad\"}",
        {});
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedRequest);
    ASSERT_TRUE(e.id().has_value());
    EXPECT_EQ(*e.id(), 77u);
    EXPECT_EQ(e.tenant(), "alice");
  }
}

TEST(ParseRequest, RejectsUnknownGeneratorKeys) {
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\","
                             "\"generator\":{\"kind\":\"random\",\"typo\":1},"
                             "\"schedulers\":[\"heft\"]}"),
            ErrorCode::kMalformedRequest);
  EXPECT_EQ(parse_error_code("{\"op\":\"submit\","
                             "\"generator\":{\"kind\":\"mystery\"},"
                             "\"schedulers\":[\"heft\"]}"),
            ErrorCode::kMalformedRequest);
}

// ---------------------------------------------------------------- fair queue

TEST(FairQueueTest, FifoWithinOneTenant) {
  FairQueue<int> q{FairQueueOptions{}};
  ASSERT_EQ(q.push("a", 1), FairQueue<int>::Push::kOk);
  ASSERT_EQ(q.push("a", 2), FairQueue<int>::Push::kOk);
  std::string tenant;
  int item = 0;
  ASSERT_TRUE(q.pop(&tenant, &item));
  EXPECT_EQ(item, 1);
  ASSERT_TRUE(q.pop(&tenant, &item));
  EXPECT_EQ(item, 2);
  EXPECT_FALSE(q.pop(&tenant, &item));
  EXPECT_TRUE(q.empty());
}

TEST(FairQueueTest, WeightedInterleaveIsExact) {
  // weights a:2, b:1, quantum 1 — the DRR order is pinned exactly:
  // a gets 2 units per round, b gets 1, so the service order repeats
  // a,a,b. Tests drive the queue single-threaded for determinism.
  FairQueueOptions options;
  options.weights = {{"a", 2}, {"b", 1}};
  FairQueue<int> q{options};
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(q.push("a", i), FairQueue<int>::Push::kOk);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(q.push("b", i), FairQueue<int>::Push::kOk);
  }
  std::vector<std::string> order;
  std::string tenant;
  int item = 0;
  while (q.pop(&tenant, &item)) order.push_back(tenant);
  const std::vector<std::string> expected = {"a", "a", "b", "a", "a", "b",
                                             "a", "a", "b"};
  EXPECT_EQ(order, expected);
}

TEST(FairQueueTest, FloodingTenantCannotStarveLightTenant) {
  // The flooding tenant fills its whole FIFO before the light tenant's
  // single request arrives; DRR still serves the light tenant within one
  // round (here: the very next pop).
  FairQueueOptions options;
  options.per_tenant_capacity = 64;
  FairQueue<int> q{options};
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(q.push("flood", i), FairQueue<int>::Push::kOk);
  }
  ASSERT_EQ(q.push("light", 999), FairQueue<int>::Push::kOk);
  std::string tenant;
  int item = 0;
  std::size_t pops_until_light = 0;
  while (q.pop(&tenant, &item)) {
    ++pops_until_light;
    if (tenant == "light") break;
  }
  EXPECT_LE(pops_until_light, 2u);
  EXPECT_EQ(item, 999);
}

TEST(FairQueueTest, PerTenantCapacityRejects) {
  FairQueueOptions options;
  options.per_tenant_capacity = 2;
  FairQueue<int> q{options};
  EXPECT_EQ(q.push("a", 1), FairQueue<int>::Push::kOk);
  EXPECT_EQ(q.push("a", 2), FairQueue<int>::Push::kOk);
  EXPECT_EQ(q.push("a", 3), FairQueue<int>::Push::kTenantFull);
  // Another tenant is unaffected by a's full queue.
  EXPECT_EQ(q.push("b", 4), FairQueue<int>::Push::kOk);
  EXPECT_EQ(q.depth("a"), 2u);
  EXPECT_EQ(q.depth("b"), 1u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(FairQueueTest, MaxTenantsRejects) {
  FairQueueOptions options;
  options.max_tenants = 2;
  FairQueue<int> q{options};
  EXPECT_EQ(q.push("a", 1), FairQueue<int>::Push::kOk);
  EXPECT_EQ(q.push("b", 2), FairQueue<int>::Push::kOk);
  EXPECT_EQ(q.push("c", 3), FairQueue<int>::Push::kTooManyTenants);
  EXPECT_EQ(q.num_tenants(), 2u);
}

TEST(FairQueueTest, DrainedTenantLosesDeficit) {
  // Standard DRR: an emptied tenant re-enters its next busy period with a
  // zero deficit — it cannot bank service credit while idle.
  FairQueueOptions options;
  options.weights = {{"a", 5}};
  FairQueue<int> q{options};
  ASSERT_EQ(q.push("a", 1), FairQueue<int>::Push::kOk);
  std::string tenant;
  int item = 0;
  ASSERT_TRUE(q.pop(&tenant, &item));  // a tops up 5, spends 1, drains
  ASSERT_EQ(q.push("a", 2), FairQueue<int>::Push::kOk);
  ASSERT_EQ(q.push("b", 3), FairQueue<int>::Push::kOk);
  // a serves its one item with a fresh top-up, then b is served: the idle
  // period gave a no extra turns.
  ASSERT_TRUE(q.pop(&tenant, &item));
  EXPECT_EQ(tenant, "a");
  ASSERT_TRUE(q.pop(&tenant, &item));
  EXPECT_EQ(tenant, "b");
}

TEST(FairQueueTest, WeightLookupAndValidation) {
  FairQueueOptions options;
  options.default_weight = 2;
  options.weights = {{"vip", 8}};
  FairQueue<int> q{options};
  EXPECT_EQ(q.weight_of("vip"), 8u);
  EXPECT_EQ(q.weight_of("anyone"), 2u);

  FairQueueOptions bad;
  bad.per_tenant_capacity = 0;
  EXPECT_THROW(FairQueue<int>{bad}, InvalidArgument);
  bad = {};
  bad.quantum = 0;
  EXPECT_THROW(FairQueue<int>{bad}, InvalidArgument);
  bad = {};
  bad.weights = {{"x", 0}};
  EXPECT_THROW(FairQueue<int>{bad}, InvalidArgument);
}

TEST(FairQueueTest, DepthsSnapshot) {
  FairQueue<int> q{FairQueueOptions{}};
  ASSERT_EQ(q.push("b", 1), FairQueue<int>::Push::kOk);
  ASSERT_EQ(q.push("a", 2), FairQueue<int>::Push::kOk);
  ASSERT_EQ(q.push("a", 3), FairQueue<int>::Push::kOk);
  const auto depths = q.depths();
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_EQ(depths[0].first, "a");
  EXPECT_EQ(depths[0].second, 2u);
  EXPECT_EQ(depths[1].first, "b");
  EXPECT_EQ(depths[1].second, 1u);
}

}  // namespace
}  // namespace hdlts
