// JSON trace export tests: structural sanity (balanced, quoted, expected
// keys/counts) without a JSON library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/obs/export.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/sim/engine.hpp"
#include "hdlts/sim/trace.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/workload/classic.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::sim {
namespace {

bool balanced(const std::string& s) {
  int depth = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++depth;
        break;
      case '}':
        --depth;
        break;
      case '[':
        ++brackets;
        break;
      case ']':
        --brackets;
        break;
      default:
        break;
    }
    if (depth < 0 || brackets < 0) return false;
  }
  return depth == 0 && brackets == 0 && !in_string;
}

std::size_t count_substr(const std::string& haystack,
                         const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(util::json_escape("plain"), "plain");
}

TEST(ScheduleJson, ContainsEveryBlockAndBalances) {
  const Workload w = workload::classic_workload();
  const Problem p(w);
  const Schedule s = core::Hdlts().schedule(p);
  const std::string json = schedule_json(s, &w.graph);
  EXPECT_TRUE(balanced(json));
  // 10 primaries + 2 entry duplicates.
  EXPECT_EQ(count_substr(json, "\"task\":"), 12u);
  EXPECT_EQ(count_substr(json, "\"duplicate\":true"), 2u);
  EXPECT_NE(json.find("\"makespan\":73"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"T1\""), std::string::npos);
}

TEST(ScheduleJson, WorksWithoutGraph) {
  const Workload w = workload::classic_workload();
  const Problem p(w);
  const Schedule s = core::Hdlts().schedule(p);
  const std::string json = schedule_json(s);
  EXPECT_TRUE(balanced(json));
  EXPECT_EQ(json.find("\"name\""), std::string::npos);
}

TEST(ReplayJson, ReportsFlagsAndTimes) {
  const Workload w = workload::classic_workload();
  const Problem p(w);
  const Schedule s = core::Hdlts().schedule(p);
  const EngineResult r = replay(p, s);
  const std::string json = replay_json(r);
  EXPECT_TRUE(balanced(json));
  EXPECT_NE(json.find("\"matches_schedule\":true"), std::string::npos);
  EXPECT_NE(json.find("\"deadlocked\":false"), std::string::npos);
  EXPECT_EQ(count_substr(json, "\"scheduled\":["), 12u);
  EXPECT_EQ(count_substr(json, "\"actual\":["), 12u);
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(util::json_number(73.0), "73");
  EXPECT_EQ(util::json_number(-2.5), "-2.5");
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::json_number(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::json_number(std::nan("")), "null");
  // %.17g round-trips every finite double exactly.
  EXPECT_EQ(std::stod(util::json_number(0.1)), 0.1);
  EXPECT_EQ(std::stod(util::json_number(1.0 / 3.0)), 1.0 / 3.0);
}

TEST(ReplayJson, DeadlockedReplayStaysValidJson) {
  // 0 -> {1, 2} -> 3 with the child queued before its parent on proc 0:
  // nothing can execute, every actual time stays +inf — which must come out
  // as `null`, not the invalid token `inf`.
  graph::TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task();
  g.add_edge(0, 1, 6);
  g.add_edge(0, 2, 6);
  g.add_edge(1, 3, 6);
  g.add_edge(2, 3, 6);
  CostTable costs(4, 2);
  for (graph::TaskId v = 0; v < 4; ++v) {
    costs.set(v, 0, 10);
    costs.set(v, 1, 10);
  }
  const Workload w{std::move(g), std::move(costs), platform::Platform(2)};
  const Problem p(w);
  Schedule s(4, 2);
  s.place(1, 0, 0.0, 10.0);
  s.place(0, 0, 10.0, 20.0);
  s.place(2, 1, 26.0, 36.0);
  s.place(3, 1, 52.0, 62.0);
  const EngineResult r = replay(p, s);
  ASSERT_TRUE(r.deadlocked);
  const std::string json = replay_json(r);
  EXPECT_TRUE(balanced(json));
  EXPECT_NE(json.find("\"deadlocked\":true"), std::string::npos);
  EXPECT_EQ(count_substr(json, "\"actual\":["), 4u);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(ReplayJson, NonFiniteTimesSerializeAsNull) {
  // The writer must never emit the invalid tokens `inf`/`nan` — a result
  // with non-finite times still round-trips as valid JSON with nulls.
  EngineResult r;
  r.makespan = std::numeric_limits<double>::infinity();
  ExecutedBlock b;
  b.scheduled = Placement{0, 0, 0.0, 10.0, false};
  b.actual_start = std::numeric_limits<double>::quiet_NaN();
  b.actual_finish = -std::numeric_limits<double>::infinity();
  r.blocks.push_back(b);
  const std::string json = replay_json(r);
  EXPECT_TRUE(balanced(json));
  EXPECT_NE(json.find("\"makespan\":null"), std::string::npos);
  EXPECT_NE(json.find("\"actual\":[null,null]"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(ChromeTrace, FiftyTaskRoundTripLanesMonotone) {
  workload::RandomDagParams params;
  params.num_tasks = 50;
  const Workload w = workload::random_workload(params, 3);
  const Problem p(w);
  obs::RecordingTrace trace;
  core::Hdlts scheduler;
  scheduler.set_trace_sink(&trace);
  const Schedule s = scheduler.schedule(p);
  ASSERT_EQ(trace.steps().size(), p.num_tasks());

  std::ostringstream os;
  obs::ChromeTraceOptions options;
  options.graph = &w.graph;
  obs::write_chrome_trace(os, &s, &trace, nullptr, options);
  const std::string json = os.str();
  EXPECT_TRUE(balanced(json));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);

  // The emitter writes one event per line, "pid"/"tid"/"ts" first — parse
  // each and require non-decreasing timestamps within every (pid, tid) lane.
  std::istringstream lines(json);
  std::string line;
  std::map<std::pair<int, long long>, double> last_ts;
  std::size_t complete = 0;
  std::size_t instants = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"pid\":", 0) != 0) continue;
    int pid = 0;
    long long tid = 0;
    double ts = -1.0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"pid\":%d,\"tid\":%lld,\"ts\":%lf",
                          &pid, &tid, &ts),
              3);
    EXPECT_GE(ts, 0.0);
    const auto [it, fresh] = last_ts.try_emplace({pid, tid}, ts);
    if (!fresh) {
      EXPECT_LE(it->second, ts) << "lane (" << pid << "," << tid
                                << ") went backwards: " << line;
      it->second = ts;
    }
    if (line.find("\"ph\":\"X\"") != std::string::npos) ++complete;
    if (line.find("\"ph\":\"i\"") != std::string::npos) ++instants;
  }
  // Every schedule block becomes a complete event; every step a "select"
  // instant (plus any duplication verdicts).
  EXPECT_GE(complete, s.num_placed());
  EXPECT_GE(instants, p.num_tasks());
  // Decision lane (pid 2, tid 0) plus one lane per processor.
  EXPECT_GE(last_ts.size(), 1u + p.num_procs());
}

}  // namespace
}  // namespace hdlts::sim
