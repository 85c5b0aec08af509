// Dynamic workflow-stream scheduling tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "hdlts/check/validate.hpp"
#include "hdlts/core/reference.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/workload/classic.hpp"
#include "hdlts/workload/fft.hpp"
#include "hdlts/workload/forkjoin.hpp"
#include "hdlts/workload/md.hpp"
#include "hdlts/workload/montage.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::core {
namespace {

sim::Workload small_random(std::uint64_t seed, std::size_t procs = 3) {
  workload::RandomDagParams p;
  p.num_tasks = 25;
  p.costs.num_procs = procs;
  p.costs.ccr = 2.0;
  return workload::random_workload(p, seed);
}

TEST(Stream, RejectsBadInputs) {
  EXPECT_THROW(run_stream({}), InvalidArgument);
  std::vector<StreamArrival> s;
  s.push_back({small_random(1, 3), 0.0});
  s.push_back({small_random(2, 4), 5.0});  // different processor count
  EXPECT_THROW(run_stream(s), InvalidArgument);
  s.pop_back();
  s.push_back({small_random(2, 3), -1.0});  // negative arrival
  EXPECT_THROW(run_stream(s), InvalidArgument);
}

TEST(Stream, RejectsNonFiniteTimes) {
  // Each check is a negated >=, so NaN fails it; an infinite arrival or
  // busy start is rejected outright. Both the compiled run and the
  // reference validate through the same build step.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto expect_rejected = [](const std::vector<StreamArrival>& s,
                                  const std::vector<BusyInterval>& busy,
                                  const char* what) {
    EXPECT_THROW(run_stream(s, {}, nullptr, busy), InvalidArgument) << what;
    EXPECT_THROW(reference_stream(s, {}, busy), InvalidArgument) << what;
  };
  std::vector<StreamArrival> s;
  s.push_back({small_random(1), kNaN});
  s.push_back({small_random(2), 0.0});
  expect_rejected(s, {}, "NaN arrival");
  s[0].arrival = kInf;
  expect_rejected(s, {}, "inf arrival");
  s[0].arrival = 0.0;
  s[0].deadline = kNaN;
  expect_rejected(s, {}, "NaN deadline");
  s[0].deadline = kInf;  // the default: no deadline
  EXPECT_NO_THROW(run_stream(s));
  expect_rejected(s, {{0, kNaN, 5.0}}, "NaN busy start");
  expect_rejected(s, {{0, kInf, kInf}}, "inf busy start");
  expect_rejected(s, {{0, 1.0, kNaN}}, "NaN busy finish");
}

TEST(Stream, SingleWorkflowHasPositiveFlowTime) {
  std::vector<StreamArrival> s;
  s.push_back({workload::classic_workload(), 0.0});
  const StreamResult r = run_stream(s);
  ASSERT_EQ(r.finish.size(), 1u);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_DOUBLE_EQ(r.flow_time[0], r.finish[0]);
  EXPECT_EQ(r.executions.size(), 10u);
}

TEST(Stream, ExecutionsRespectPrecedenceAndArrival) {
  std::vector<StreamArrival> s;
  s.push_back({small_random(1), 0.0});
  s.push_back({small_random(2), 30.0});
  s.push_back({small_random(3), 60.0});
  const StreamResult r = run_stream(s);
  // Completion per (workflow, task).
  std::vector<std::vector<double>> done(3);
  for (std::size_t w = 0; w < 3; ++w) {
    done[w].assign(s[w].workload.graph.num_tasks(),
                   std::numeric_limits<double>::infinity());
  }
  for (const StreamTaskExec& e : r.executions) {
    done[e.workflow][e.task] = e.finish;
    EXPECT_GE(e.start, s[e.workflow].arrival - 1e-9);
  }
  for (std::size_t w = 0; w < 3; ++w) {
    const auto& g = s[w].workload.graph;
    for (const StreamTaskExec& e : r.executions) {
      if (e.workflow != w) continue;
      for (const graph::Adjacent& p : g.parents(e.task)) {
        EXPECT_LE(done[w][p.task], e.start + 1e-6)
            << "workflow " << w << " task " << e.task;
      }
    }
  }
}

TEST(Stream, FarApartArrivalsBehaveIndependently) {
  // When workflow 2 arrives long after workflow 1 finished, each gets its
  // solo flow time.
  std::vector<StreamArrival> solo1;
  solo1.push_back({small_random(7), 0.0});
  const double alone1 = run_stream(solo1).makespan;

  std::vector<StreamArrival> solo2;
  solo2.push_back({small_random(8), 0.0});
  const double alone2 = run_stream(solo2).makespan;

  std::vector<StreamArrival> s;
  s.push_back({small_random(7), 0.0});
  s.push_back({small_random(8), alone1 + 100.0});
  const StreamResult r = run_stream(s);
  EXPECT_NEAR(r.flow_time[0], alone1, 1e-9);
  EXPECT_NEAR(r.flow_time[1], alone2, 1e-9);
}

TEST(Stream, ContentionStretchesFlowTimes) {
  std::vector<StreamArrival> solo;
  solo.push_back({small_random(11), 0.0});
  const double alone = run_stream(solo).makespan;

  // Three identical workflows arriving together must contend.
  std::vector<StreamArrival> s;
  for (int i = 0; i < 3; ++i) s.push_back({small_random(11), 0.0});
  const StreamResult r = run_stream(s);
  const double worst =
      *std::max_element(r.flow_time.begin(), r.flow_time.end());
  EXPECT_GT(worst, alone - 1e-9);
}

TEST(Stream, UnsortedArrivalsAreHandled) {
  std::vector<StreamArrival> s;
  s.push_back({small_random(1), 50.0});
  s.push_back({small_random(2), 0.0});
  const StreamResult r = run_stream(s);
  for (const StreamTaskExec& e : r.executions) {
    EXPECT_GE(e.start, s[e.workflow].arrival - 1e-9);
  }
}

TEST(Stream, EqualArrivalsReleaseInListOrder) {
  // Equal arrival times release in list order, each workflow drained before
  // the next, past the 16 elements up to which std::sort's insertion pass
  // happens to keep ties in order.
  const sim::Workload w = small_random(3);
  const std::size_t n = w.graph.num_tasks();
  const std::vector<StreamArrival> s(17, StreamArrival{w, 0.0});
  StreamOptions fifo;
  fifo.policy = StreamPolicy::kFifoEft;
  obs::RecordingTrace trace;
  (void)run_stream(s, fifo, &trace);
  ASSERT_EQ(trace.placements().size(), s.size() * n);
  std::size_t owner = 0;
  for (const obs::PlacementEvent& p : trace.placements()) {
    EXPECT_GE(p.task / n, owner) << "task " << p.task;  // combined id space
    owner = std::max<std::size_t>(owner, p.task / n);
  }
  EXPECT_EQ(owner, s.size() - 1);
}

TEST(Stream, FifoPolicyDiffersFromPv) {
  std::vector<StreamArrival> s;
  for (std::uint64_t i = 0; i < 4; ++i) {
    s.push_back({small_random(20 + i), 10.0 * static_cast<double>(i)});
  }
  StreamOptions pv;
  StreamOptions fifo;
  fifo.policy = StreamPolicy::kFifoEft;
  const StreamResult a = run_stream(s, pv);
  const StreamResult b = run_stream(s, fifo);
  // Both complete everything; the policies are genuinely different rules so
  // at least one workflow's finish time should differ on contended input.
  EXPECT_EQ(a.executions.size(), b.executions.size());
  bool any_diff = false;
  for (std::size_t w = 0; w < s.size(); ++w) {
    if (std::abs(a.finish[w] - b.finish[w]) > 1e-9) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Stream, DeterministicAcrossRuns) {
  std::vector<StreamArrival> s;
  s.push_back({small_random(5), 0.0});
  s.push_back({small_random(6), 15.0});
  const StreamResult a = run_stream(s);
  const StreamResult b = run_stream(s);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.executions.size(), b.executions.size());
  for (std::size_t i = 0; i < a.executions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.executions[i].start, b.executions[i].start);
    EXPECT_EQ(a.executions[i].proc, b.executions[i].proc);
  }
}

// --- Seeded properties across every workload family ---

sim::Workload stream_family_workload(int family, std::uint64_t seed) {
  workload::CostParams costs;
  costs.num_procs = 3;
  switch (family) {
    case 0: {
      workload::RandomDagParams p;
      p.num_tasks = 20;
      p.costs = costs;
      return workload::random_workload(p, seed);
    }
    case 1: {
      workload::FftParams p;
      p.points = 8;
      p.costs = costs;
      return workload::fft_workload(p, seed);
    }
    case 2: {
      workload::MontageParams p;
      p.num_nodes = 25;
      p.costs = costs;
      return workload::montage_workload(p, seed);
    }
    case 3: {
      workload::MdParams p;
      p.costs = costs;
      return workload::md_workload(p, seed);
    }
    default: {
      workload::ForkJoinParams p;
      p.costs = costs;
      return workload::forkjoin_workload(p, seed);
    }
  }
}

// --- Compiled-vs-reference bit identity ---

void expect_stream_identical(const StreamResult& got, const StreamResult& want,
                             const std::string& label) {
  EXPECT_EQ(got.makespan, want.makespan) << label;  // exact, no tolerance
  EXPECT_EQ(got.finish, want.finish) << label;
  EXPECT_EQ(got.flow_time, want.flow_time) << label;
  ASSERT_EQ(got.executions.size(), want.executions.size()) << label;
  for (std::size_t i = 0; i < got.executions.size(); ++i) {
    const StreamTaskExec& a = got.executions[i];
    const StreamTaskExec& b = want.executions[i];
    EXPECT_EQ(a.workflow, b.workflow) << label << " #" << i;
    EXPECT_EQ(a.task, b.task) << label << " #" << i;
    EXPECT_EQ(a.proc, b.proc) << label << " #" << i;
    EXPECT_EQ(a.start, b.start) << label << " #" << i;
    EXPECT_EQ(a.finish, b.finish) << label << " #" << i;
  }
}

constexpr PvKind kPvKinds[] = {PvKind::kSampleStddev,
                               PvKind::kPopulationStddev, PvKind::kRange};

TEST(StreamDifferential, CompiledMatchesReferenceAcrossFamiliesAndPolicies) {
  std::size_t pairs = 0;
  for (int family = 0; family < 5; ++family) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::vector<StreamArrival> arrivals;
      arrivals.push_back({stream_family_workload(family, seed), 0.0});
      arrivals.push_back({stream_family_workload(family, seed + 100), 12.0});
      arrivals.push_back({stream_family_workload(family, seed + 200), 40.0});
      for (const PvKind pv : kPvKinds) {
        for (const StreamPolicy policy :
             {StreamPolicy::kHdltsPv, StreamPolicy::kFifoEft}) {
          StreamOptions options;
          options.policy = policy;
          options.pv = pv;
          const StreamResult compiled = run_stream(arrivals, options);
          const StreamResult reference = reference_stream(arrivals, options);
          expect_stream_identical(
              compiled, reference,
              "family " + std::to_string(family) + " seed " +
                  std::to_string(seed) + " pv " +
                  std::to_string(static_cast<int>(pv)) +
                  (policy == StreamPolicy::kHdltsPv ? " hdlts-pv" : " fifo"));
          ++pairs;
        }
      }
    }
  }
  EXPECT_GE(pairs, 90u);
}

TEST(StreamDifferential, SingleArrivalMatchesStaticWithoutDuplication) {
  // One workflow arriving at t = 0 on idle processors is the static
  // problem: the stream must reproduce Hdlts without entry duplication
  // (the stream never duplicates) exactly, for every PV kind.
  std::size_t cases = 0;
  for (const PvKind pv : kPvKinds) {
    for (int family = 0; family < 5; ++family) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const sim::Workload w = stream_family_workload(family, seed);
        std::vector<StreamArrival> arrivals;
        arrivals.push_back({w, 0.0});
        StreamOptions options;
        options.pv = pv;
        const StreamResult r = run_stream(arrivals, options);
        HdltsOptions hdlts;
        hdlts.duplication = DuplicationRule::kOff;
        hdlts.pv = pv;
        const sim::Schedule s = Hdlts(hdlts).schedule(sim::Problem(w));
        const std::string label = "pv " + std::to_string(static_cast<int>(pv)) +
                                  " family " + std::to_string(family) +
                                  " seed " + std::to_string(seed);
        EXPECT_EQ(r.makespan, s.makespan()) << label;
        ASSERT_EQ(r.executions.size(), w.graph.num_tasks()) << label;
        for (const StreamTaskExec& e : r.executions) {
          EXPECT_EQ(e.workflow, 0u) << label;
          const sim::Placement& pl = s.placement(e.task);
          EXPECT_EQ(e.proc, pl.proc) << label << " task " << e.task;
          EXPECT_EQ(e.start, pl.start) << label << " task " << e.task;
          EXPECT_EQ(e.finish, pl.finish) << label << " task " << e.task;
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 90u);
}

TEST(StreamDifferential, CompileOnceRunManyIsBitIdentical) {
  // A frozen StreamHdlts recycled across run_into calls must keep matching
  // the one-shot result (warm arena/schedule state must not leak).
  std::vector<StreamArrival> arrivals;
  arrivals.push_back({stream_family_workload(0, 9), 0.0});
  arrivals.push_back({stream_family_workload(2, 10), 20.0});
  const StreamResult fresh = run_stream(arrivals);
  StreamHdlts scheduler;
  scheduler.compile(arrivals);
  StreamResult out;
  for (int round = 0; round < 3; ++round) {
    scheduler.run_into(out);
    expect_stream_identical(out, fresh,
                            "round " + std::to_string(round));
  }
}

TEST(StreamDifferential, ProcessorBusyForeverMatchesReference) {
  // Only a busy interval's start must be finite: a finish of +inf takes
  // the processor for good. Nothing may run on it past the start, the
  // stream still completes, and the compiled run matches the reference.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<StreamArrival> arrivals;
  arrivals.push_back({stream_family_workload(0, 4), 0.0});
  arrivals.push_back({stream_family_workload(3, 5), 15.0});
  const std::vector<BusyInterval> busy = {{1, 10.0, kInf}};
  for (const StreamPolicy policy :
       {StreamPolicy::kHdltsPv, StreamPolicy::kFifoEft}) {
    StreamOptions options;
    options.policy = policy;
    const StreamResult compiled = run_stream(arrivals, options, nullptr, busy);
    const StreamResult reference = reference_stream(arrivals, options, busy);
    const std::string label =
        policy == StreamPolicy::kHdltsPv ? "hdlts-pv" : "fifo";
    expect_stream_identical(compiled, reference, label);
    EXPECT_LT(compiled.makespan, kInf) << label;
    for (const StreamTaskExec& e : compiled.executions) {
      if (e.proc == 1) {
        EXPECT_LE(e.finish, 10.0) << label;
      }
    }
    const check::StreamValidator validator(options);
    EXPECT_TRUE(validator.validate(arrivals, busy, compiled).empty()) << label;
  }
}

TEST(StreamProperty, EveryFamilyValidatesUnderBothPolicies) {
  for (int family = 0; family < 5; ++family) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::vector<StreamArrival> arrivals;
      arrivals.push_back({stream_family_workload(family, seed), 0.0});
      arrivals.push_back({stream_family_workload(family, seed + 100), 12.0});
      arrivals.push_back({stream_family_workload(family, seed + 200), 40.0});
      for (const StreamPolicy policy :
           {StreamPolicy::kHdltsPv, StreamPolicy::kFifoEft}) {
        StreamOptions options;
        options.policy = policy;
        const StreamResult r = run_stream(arrivals, options);
        const check::StreamValidator validator(options);
        const auto violations = validator.validate(arrivals, r);
        EXPECT_TRUE(violations.empty())
            << "family " << family << " seed " << seed << " policy "
            << (policy == StreamPolicy::kHdltsPv ? "pv" : "fifo") << ": "
            << violations.front();
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
          EXPECT_GE(r.flow_time[i], 0.0);
          EXPECT_LE(r.finish[i], r.makespan + 1e-9);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hdlts::core
