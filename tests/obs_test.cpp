// Telemetry subsystem tests: metric semantics, timing spans, and the
// per-decision trace sink — including the paper's Table I worked example
// traced event by event (entry-duplication verdicts on every CPU).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/metrics/experiment.hpp"
#include "hdlts/obs/export.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/obs/quantile.hpp"
#include "hdlts/obs/span.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/sched/cpop.hpp"
#include "hdlts/sched/heft.hpp"
#include "hdlts/workload/classic.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::obs {
namespace {

// ---------------------------------------------------------------------------
// Metric registry

TEST(Metrics, CounterAddsAndResets) {
  MetricRegistry reg;
  Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same object.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndRecordMax) {
  MetricRegistry reg;
  Gauge& g = reg.gauge("test.gauge");
  g.set(3.0);
  g.record_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.record_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(Metrics, HistogramBucketsAndNaN) {
  MetricRegistry reg;
  const std::array<double, 3> bounds = {1.0, 10.0, 100.0};
  Histogram& h = reg.histogram("test.hist", bounds);
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (boundary inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  h.observe(std::nan(""));  // counted, overflow, excluded from sum
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // 1000 + NaN
}

TEST(Metrics, KindMismatchThrows) {
  MetricRegistry reg;
  reg.counter("test.name");
  EXPECT_THROW(reg.gauge("test.name"), InvalidArgument);
  const std::array<double, 1> bounds = {1.0};
  EXPECT_THROW(reg.histogram("test.name", bounds), InvalidArgument);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  MetricRegistry reg;
  EXPECT_THROW(reg.histogram("test.h0", {}), InvalidArgument);
  const std::array<double, 2> unsorted = {2.0, 1.0};
  EXPECT_THROW(reg.histogram("test.h1", unsorted), InvalidArgument);
}

TEST(Metrics, JsonDumpIsValidAndStableOrder) {
  MetricRegistry reg;
  reg.counter("b.second").add(2);
  reg.counter("a.first").add(1);
  reg.gauge("c.gauge").set(std::numeric_limits<double>::infinity());
  const std::array<double, 2> bounds = {1.0, 2.0};
  reg.histogram("d.hist", bounds).observe(1.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  // Registration order, not alphabetical.
  EXPECT_LT(json.find("b.second"), json.find("a.first"));
  // Non-finite gauge value serializes as null, keeping the JSON valid.
  EXPECT_NE(json.find("\"c.gauge\":null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Metrics, VisitIteratesInRegistrationOrder) {
  MetricRegistry reg;
  Counter& c = reg.counter("v.counter");
  Gauge& g = reg.gauge("v.gauge");
  const std::array<double, 2> bounds = {1.0, 2.0};
  Histogram& h = reg.histogram("v.hist", bounds);
  std::vector<std::string> names;
  std::vector<MetricView::Kind> kinds;
  reg.visit([&](const MetricView& view) {
    names.emplace_back(view.name);
    kinds.push_back(view.kind);
    switch (view.kind) {
      case MetricView::Kind::kCounter:
        EXPECT_EQ(view.counter, &c);
        break;
      case MetricView::Kind::kGauge:
        EXPECT_EQ(view.gauge, &g);
        break;
      case MetricView::Kind::kHistogram:
        EXPECT_EQ(view.histogram, &h);
        break;
    }
  });
  const std::vector<std::string> want = {"v.counter", "v.gauge", "v.hist"};
  EXPECT_EQ(names, want);
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], MetricView::Kind::kCounter);
  EXPECT_EQ(kinds[1], MetricView::Kind::kGauge);
  EXPECT_EQ(kinds[2], MetricView::Kind::kHistogram);
}

// ---------------------------------------------------------------------------
// Histogram quantile estimation

TEST(Quantiles, EmptyHistogramIsNaN) {
  MetricRegistry reg;
  const std::array<double, 2> bounds = {1.0, 10.0};
  Histogram& h = reg.histogram("q.empty", bounds);
  EXPECT_TRUE(std::isnan(histogram_quantile(h, 0.5)));
}

TEST(Quantiles, SingleBucketPointMassIsExact) {
  // Every observation equal: the single-occupied-bucket mean estimator must
  // return the value EXACTLY, not a bucket-interpolated approximation.
  MetricRegistry reg;
  const std::array<double, 3> bounds = {1.0, 10.0, 100.0};
  Histogram& h = reg.histogram("q.point", bounds);
  for (int i = 0; i < 7; ++i) h.observe(7.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.95), 7.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 7.0);
}

TEST(Quantiles, SingleBucketMixedValuesReturnTheMean) {
  MetricRegistry reg;
  const std::array<double, 2> bounds = {1.0, 10.0};
  Histogram& h = reg.histogram("q.mean", bounds);
  h.observe(2.0);
  h.observe(9.0);  // same bucket (1, 10]
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 5.5);
}

TEST(Quantiles, InterpolatesAcrossBuckets) {
  const std::array<double, 2> bounds = {10.0, 20.0};
  const std::array<std::uint64_t, 3> buckets = {10, 10, 0};
  // rank(0.75) = 15 -> halfway through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(
      quantile_from_buckets(bounds, buckets, 0.0, 0.75), 15.0);
  // rank(0.5) = 10 -> exactly the first bucket's upper edge.
  EXPECT_DOUBLE_EQ(
      quantile_from_buckets(bounds, buckets, 0.0, 0.5), 10.0);
}

TEST(Quantiles, OverflowQuantileReturnsLastBound) {
  MetricRegistry reg;
  const std::array<double, 2> bounds = {1.0, 10.0};
  Histogram& h = reg.histogram("q.over", bounds);
  h.observe(0.5);
  for (int i = 0; i < 99; ++i) h.observe(1000.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 10.0);
}

TEST(Quantiles, JsonDumpCarriesExactPointMassPercentiles) {
  MetricRegistry reg;
  const std::array<double, 3> bounds = {1.0, 10.0, 100.0};
  Histogram& h = reg.histogram("q.json", bounds);
  for (int i = 0; i < 5; ++i) h.observe(7.0);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\":7"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":7"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":7"), std::string::npos);
}

TEST(Quantiles, JsonDumpEmitsNullPercentilesWhileEmpty) {
  MetricRegistry reg;
  const std::array<double, 1> bounds = {1.0};
  (void)reg.histogram("q.jsonempty", bounds);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find("\"p99\":null"), std::string::npos);
}

TEST(Metrics, ConcurrentCountersSumExactly) {
  MetricRegistry reg;
  Counter& c = reg.counter("test.mt");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

// ---------------------------------------------------------------------------
// Timing spans

TEST(Spans, DisabledLogRecordsNothing) {
  SpanLog& log = SpanLog::global();
  log.disable();
  { const TimingSpan span("obs_test.ignored"); }
  log.enable(16);
  EXPECT_EQ(log.total_recorded(), 0u);
  log.disable();
}

TEST(Spans, NestingDepthsAndOrder) {
  SpanLog& log = SpanLog::global();
  log.enable(16);
  {
    const TimingSpan outer("obs_test.outer");
    { const TimingSpan inner("obs_test.inner"); }
  }
  const auto events = log.snapshot();
  log.disable();
  ASSERT_EQ(events.size(), 2u);
  // Completed-order: the inner span closes (and is recorded) first.
  EXPECT_STREQ(events[0].name, "obs_test.inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "obs_test.outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[0].dur_ns, 0);
  EXPECT_GE(events[1].dur_ns, 0);
}

TEST(Spans, RingOverwritesOldestAndCountsDrops) {
  SpanLog& log = SpanLog::global();
  log.enable(4);
  for (int i = 0; i < 10; ++i) {
    const TimingSpan span("obs_test.wrap");
  }
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.snapshot().size(), 4u);
  log.disable();
}

TEST(Spans, WraparoundKeepsTheNewestEvents) {
  SpanLog& log = SpanLog::global();
  log.enable(3);
  const char* names[] = {"obs_test.w0", "obs_test.w1", "obs_test.w2",
                         "obs_test.w3", "obs_test.w4"};
  for (const char* name : names) {
    const TimingSpan span(name);
  }
  const auto events = log.snapshot();
  log.disable();
  // 5 spans through a 3-slot ring: the survivors are the last 3, in order.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "obs_test.w2");
  EXPECT_STREQ(events[1].name, "obs_test.w3");
  EXPECT_STREQ(events[2].name, "obs_test.w4");
}

TEST(Spans, ConcurrentEmissionCountsEverySpan) {
  // Runs under the TSan CI job: multi-thread emission into the shared ring
  // must be race-free and lose no counts (drops are accounted, not silent).
  SpanLog& log = SpanLog::global();
  constexpr std::size_t kCapacity = 64;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  log.enable(kCapacity);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        const TimingSpan span("obs_test.mt");
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const auto events = log.snapshot();
  EXPECT_EQ(log.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.dropped(),
            static_cast<std::uint64_t>(kThreads) * kPerThread - kCapacity);
  log.disable();
  ASSERT_EQ(events.size(), kCapacity);
  for (const SpanEvent& ev : events) {
    EXPECT_STREQ(ev.name, "obs_test.mt");
    EXPECT_GE(ev.dur_ns, 0);
    EXPECT_LT(ev.tid, static_cast<std::uint32_t>(kThreads) + 16u);
  }
}

// ---------------------------------------------------------------------------
// Decision trace: the Table I worked example

class TableOneTrace : public ::testing::Test {
 protected:
  TableOneTrace() : workload_(workload::classic_workload()),
                    problem_(workload_) {
    core::Hdlts scheduler;
    scheduler.set_trace_sink(&trace_);
    schedule_ = scheduler.schedule(problem_);
  }
  sim::Workload workload_;
  sim::Problem problem_;
  RecordingTrace trace_;
  sim::Schedule schedule_{0, 1};
};

TEST_F(TableOneTrace, BeginAndEndFrameTheRun) {
  EXPECT_EQ(trace_.scheduler(), "hdlts");
  EXPECT_EQ(trace_.num_tasks(), 10u);
  EXPECT_EQ(trace_.num_procs(), 3u);
  ASSERT_TRUE(trace_.has_end());
  EXPECT_DOUBLE_EQ(trace_.end().makespan, 73.0);
  EXPECT_EQ(trace_.end().steps, 10u);
  EXPECT_EQ(trace_.end().duplicates, 2u);
  EXPECT_GE(trace_.end().itq_high_water, 5u);  // step 2's ready set
  EXPECT_GT(trace_.end().arena_bytes, 0u);     // compiled path
}

TEST_F(TableOneTrace, StepsMatchTableOne) {
  // Selection order and chosen CPUs of the paper's Table I (0-based).
  const std::vector<graph::TaskId> selected = {0, 5, 2, 6, 3, 4, 1, 8, 7, 9};
  const std::vector<platform::ProcId> chosen = {2, 2, 0, 0, 1, 2, 1, 1, 1, 1};
  ASSERT_EQ(trace_.steps().size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const RecordingTrace::StepRecord& step = trace_.steps()[i];
    EXPECT_EQ(step.step, i);
    EXPECT_EQ(step.selected, selected[i]);
    EXPECT_EQ(step.chosen, chosen[i]);
    ASSERT_EQ(step.eft.size(), 3u);
    EXPECT_EQ(step.itq_tasks.size(), step.itq_pv.size());
    // The committed finish is the winning EFT and start is consistent.
    EXPECT_DOUBLE_EQ(step.finish, step.eft[step.chosen]);
    EXPECT_LE(step.start, step.finish);
    // The selected task sits in the snapshot.
    EXPECT_NE(std::find(step.itq_tasks.begin(), step.itq_tasks.end(),
                        step.selected),
              step.itq_tasks.end());
  }
  // Step 0: the entry's EFT row over P1..P3 is {14, 16, 9}.
  EXPECT_DOUBLE_EQ(trace_.steps()[0].eft[0], 14.0);
  EXPECT_DOUBLE_EQ(trace_.steps()[0].eft[1], 16.0);
  EXPECT_DOUBLE_EQ(trace_.steps()[0].eft[2], 9.0);
}

TEST_F(TableOneTrace, DuplicationVerdictsOnAllCpus) {
  // Algorithm 1 examines P1 and P2 (primary on P3) and accepts both:
  // dup [0,14] on P1 and [0,16] on P2 beat the networked arrivals.
  ASSERT_EQ(trace_.duplications().size(), 2u);
  const DuplicationEvent& d0 = trace_.duplications()[0];
  EXPECT_EQ(d0.task, 0u);
  EXPECT_EQ(d0.primary_proc, 2u);
  EXPECT_EQ(d0.candidate_proc, 0u);
  EXPECT_DOUBLE_EQ(d0.dup_start, 0.0);
  EXPECT_DOUBLE_EQ(d0.dup_finish, 14.0);
  EXPECT_TRUE(d0.accepted);
  EXPECT_GT(d0.benefits, 0u);
  EXPECT_EQ(d0.num_children, 5u);
  EXPECT_LT(d0.dup_finish, d0.best_arrival);
  const DuplicationEvent& d1 = trace_.duplications()[1];
  EXPECT_EQ(d1.candidate_proc, 1u);
  EXPECT_DOUBLE_EQ(d1.dup_finish, 16.0);
  EXPECT_TRUE(d1.accepted);
  EXPECT_LT(d1.dup_finish, d1.best_arrival);
}

TEST_F(TableOneTrace, PlacementsCoverScheduleExactly) {
  // 10 primaries + 2 duplicates, all matching the returned schedule.
  ASSERT_EQ(trace_.placements().size(), 12u);
  std::size_t duplicates = 0;
  for (const PlacementEvent& pl : trace_.placements()) {
    if (pl.duplicate) {
      ++duplicates;
      continue;
    }
    const sim::Placement& got = schedule_.placement(pl.task);
    EXPECT_EQ(got.proc, pl.proc);
    EXPECT_DOUBLE_EQ(got.start, pl.start);
    EXPECT_DOUBLE_EQ(got.finish, pl.finish);
  }
  EXPECT_EQ(duplicates, 2u);
}

TEST_F(TableOneTrace, ItqInTaskOrderKeepsEachPvWithItsTask) {
  // Sinks receive the ITQ in queue order; itq_in_task_order re-sorts a
  // snapshot into Table I's task-id order, moving each PV with its task and
  // leaving the rest of the step untouched.
  std::size_t reordered = 0;
  for (const RecordingTrace::StepRecord& step : trace_.steps()) {
    SCOPED_TRACE("step " + std::to_string(step.step));
    const RecordingTrace::StepRecord sorted = itq_in_task_order(step);
    ASSERT_EQ(sorted.itq_tasks.size(), step.itq_tasks.size());
    ASSERT_EQ(sorted.itq_pv.size(), step.itq_pv.size());
    EXPECT_TRUE(std::is_sorted(sorted.itq_tasks.begin(),
                               sorted.itq_tasks.end()));
    for (std::size_t i = 0; i < step.itq_tasks.size(); ++i) {
      const auto at = std::find(sorted.itq_tasks.begin(),
                                sorted.itq_tasks.end(), step.itq_tasks[i]);
      ASSERT_NE(at, sorted.itq_tasks.end());
      EXPECT_EQ(sorted.itq_pv[static_cast<std::size_t>(
                    at - sorted.itq_tasks.begin())],
                step.itq_pv[i]);
    }
    if (sorted.itq_tasks != step.itq_tasks) ++reordered;
    EXPECT_EQ(sorted.step, step.step);
    EXPECT_EQ(sorted.selected, step.selected);
    EXPECT_EQ(sorted.eft, step.eft);
    EXPECT_EQ(sorted.chosen, step.chosen);
    EXPECT_EQ(sorted.start, step.start);
    EXPECT_EQ(sorted.finish, step.finish);
  }
  // The worked example's queue order differs from task order somewhere, so
  // the sort is exercised rather than passed through.
  EXPECT_GT(reordered, 0u);
}

TEST(DecisionTrace, RejectionEventWhenDuplicateCannotBeat) {
  // Zero-cost communication: the child's input arrives the instant the
  // primary finishes, so a duplicate (same W) can never finish earlier —
  // Algorithm 1 must examine and reject the other CPU.
  graph::TaskGraph g;
  g.add_task();
  g.add_task();
  g.add_edge(0, 1, 0.0);
  sim::CostTable costs(2, 2);
  for (graph::TaskId v = 0; v < 2; ++v) {
    costs.set(v, 0, 10.0);
    costs.set(v, 1, 10.0);
  }
  const sim::Workload w{std::move(g), std::move(costs), platform::Platform(2)};
  const sim::Problem p(w);
  RecordingTrace trace;
  core::Hdlts scheduler;
  scheduler.set_trace_sink(&trace);
  const sim::Schedule s = scheduler.schedule(p);
  EXPECT_EQ(s.duplicates(0).size(), 0u);
  ASSERT_EQ(trace.duplications().size(), 1u);
  const DuplicationEvent& d = trace.duplications()[0];
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.benefits, 0u);
  EXPECT_GE(d.dup_finish, d.best_arrival);
}

TEST(DecisionTrace, AttachingSinkDoesNotChangeTheSchedule) {
  const sim::Workload w = workload::random_workload({}, 11);
  const sim::Problem p(w);
  const sim::Schedule plain = core::Hdlts().schedule(p);
  RecordingTrace trace;
  core::Hdlts traced_scheduler;
  traced_scheduler.set_trace_sink(&trace);
  const sim::Schedule traced = traced_scheduler.schedule(p);
  EXPECT_EQ(plain.makespan(), traced.makespan());
  for (graph::TaskId v = 0; v < p.num_tasks(); ++v) {
    EXPECT_EQ(plain.placement(v).proc, traced.placement(v).proc);
    EXPECT_EQ(plain.placement(v).start, traced.placement(v).start);
    EXPECT_EQ(plain.placement(v).finish, traced.placement(v).finish);
  }
}

// ---------------------------------------------------------------------------
// Baseline schedulers

TEST(DecisionTrace, HeftEmitsPerDecisionEftRows) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  RecordingTrace trace;
  sched::Heft heft;
  heft.set_trace_sink(&trace);
  const sim::Schedule s = heft.schedule(p);
  EXPECT_EQ(trace.scheduler(), "heft");
  ASSERT_EQ(trace.steps().size(), 10u);
  for (const RecordingTrace::StepRecord& step : trace.steps()) {
    ASSERT_EQ(step.eft.size(), 3u);
    EXPECT_TRUE(step.itq_tasks.empty());  // static list: no ITQ
    // The chosen processor minimizes the recorded row.
    for (const double eft : step.eft) EXPECT_LE(step.eft[step.chosen], eft);
    EXPECT_DOUBLE_EQ(step.finish, step.eft[step.chosen]);
  }
  ASSERT_TRUE(trace.has_end());
  EXPECT_DOUBLE_EQ(trace.end().makespan, s.makespan());
}

TEST(DecisionTrace, ListBaselinesReplayTheirSchedules) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  RecordingTrace trace;
  sched::Cpop cpop;
  cpop.set_trace_sink(&trace);
  const sim::Schedule s = cpop.schedule(p);
  EXPECT_EQ(trace.scheduler(), "cpop");
  EXPECT_EQ(trace.placements().size(), 10u);
  ASSERT_TRUE(trace.has_end());
  EXPECT_DOUBLE_EQ(trace.end().makespan, s.makespan());
}

// ---------------------------------------------------------------------------
// Online / stream integration

TEST(DecisionTrace, OnlineRunEmitsFailureNotes) {
  const sim::Workload w = workload::classic_workload();
  RecordingTrace trace;
  const core::ProcFailure failures[] = {{2, 20.0}};
  const core::OnlineResult r =
      core::run_online(w, failures, core::HdltsOptions{}, &trace);
  EXPECT_TRUE(r.completed);
  bool saw_failure = false;
  std::size_t phases = 0;
  for (const RecordingTrace::NoteRecord& n : trace.notes()) {
    if (n.kind == "online.failure") {
      saw_failure = true;
      EXPECT_DOUBLE_EQ(n.value, 20.0);
    }
    if (n.kind == "online.phase_start") ++phases;
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_GE(phases, 2u);  // cold phase + at least one post-failure phase
  ASSERT_TRUE(trace.has_end());
  EXPECT_DOUBLE_EQ(trace.end().makespan, r.makespan);
}

TEST(DecisionTrace, StreamRunEmitsArrivalsAndPlacements) {
  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({workload::classic_workload(), 0.0});
  arrivals.push_back({workload::classic_workload(), 25.0});
  RecordingTrace trace;
  const core::StreamResult r =
      core::run_stream(arrivals, core::StreamOptions{}, &trace);
  EXPECT_EQ(trace.scheduler(), "stream-hdlts");
  EXPECT_EQ(trace.placements().size(), 20u);
  std::size_t arrivals_seen = 0;
  for (const RecordingTrace::NoteRecord& n : trace.notes()) {
    if (n.kind == "stream.arrival") ++arrivals_seen;
  }
  EXPECT_EQ(arrivals_seen, 2u);
  ASSERT_TRUE(trace.has_end());
  EXPECT_DOUBLE_EQ(trace.end().makespan, r.makespan);
  // The recorded placements reconstruct the processor lanes in the Chrome
  // export even though run_stream returns no sim::Schedule.
  std::ostringstream os;
  write_chrome_trace(os, nullptr, &trace, nullptr);
  EXPECT_NE(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(DecisionTrace, DynamicRunsEmitTheirInputsAndResults) {
  // Each dynamic runtime emits its begin, note, placement and end events
  // from its own code. They must tell the run the inputs and the returned
  // result describe, event for event and bit for bit.
  const sim::Workload w = workload::random_workload({}, 7);
  const double clean = core::Hdlts().schedule(sim::Problem(w)).makespan();
  const core::ProcFailure failures[] = {{0, 0.25 * clean},
                                        {2, 0.5 * clean}};
  {
    SCOPED_TRACE("online");
    RecordingTrace trace;
    const core::OnlineResult r =
        core::run_online(w, failures, core::HdltsOptions{}, &trace);
    EXPECT_EQ(trace.scheduler(), "online-hdlts");
    EXPECT_EQ(trace.num_tasks(), w.graph.num_tasks());
    EXPECT_EQ(trace.num_procs(), w.platform.num_procs());
    std::vector<double> phases;
    std::vector<double> failure_times;
    std::size_t lost_notes = 0;
    for (const RecordingTrace::NoteRecord& n : trace.notes()) {
      if (n.kind == "online.phase_start") phases.push_back(n.value);
      if (n.kind == "online.failure") failure_times.push_back(n.value);
      if (n.kind == "online.lost_execution") ++lost_notes;
    }
    EXPECT_EQ(phases,
              (std::vector<double>{0.0, failures[0].time, failures[1].time}));
    EXPECT_EQ(failure_times,
              (std::vector<double>{failures[0].time, failures[1].time}));
    EXPECT_EQ(lost_notes, r.lost_executions);
    std::vector<core::OnlineExec> survivors;
    std::size_t duplicates = 0;
    for (const core::OnlineExec& e : r.executions) {
      if (e.lost) continue;
      survivors.push_back(e);
      if (e.duplicate) ++duplicates;
    }
    ASSERT_EQ(trace.placements().size(), survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      SCOPED_TRACE("placement " + std::to_string(i));
      const PlacementEvent& p = trace.placements()[i];
      EXPECT_EQ(p.task, survivors[i].task);
      EXPECT_EQ(p.proc, survivors[i].proc);
      EXPECT_EQ(p.start, survivors[i].start);
      EXPECT_EQ(p.finish, survivors[i].finish);
      EXPECT_EQ(p.duplicate, survivors[i].duplicate);
    }
    ASSERT_TRUE(trace.has_end());
    EXPECT_EQ(trace.end().makespan, r.makespan);
    EXPECT_EQ(trace.end().steps, survivors.size());
    EXPECT_EQ(trace.end().duplicates, duplicates);
  }

  std::vector<core::StreamArrival> arrivals;
  arrivals.push_back({workload::classic_workload(), 0.0});
  arrivals.push_back({workload::classic_workload(), 10.0});
  arrivals.push_back({workload::classic_workload(), 25.0});
  const std::size_t n = arrivals.front().workload.graph.num_tasks();
  for (const core::StreamPolicy policy :
       {core::StreamPolicy::kHdltsPv, core::StreamPolicy::kFifoEft}) {
    SCOPED_TRACE("stream policy " + std::to_string(static_cast<int>(policy)));
    core::StreamOptions options;
    options.policy = policy;
    RecordingTrace trace;
    const core::StreamResult r = core::run_stream(arrivals, options, &trace);
    std::vector<double> arrival_notes;
    for (const RecordingTrace::NoteRecord& note : trace.notes()) {
      if (note.kind == "stream.arrival") arrival_notes.push_back(note.value);
    }
    EXPECT_EQ(arrival_notes, (std::vector<double>{0.0, 10.0, 25.0}));
    // Placements come in decision order over the combined id space
    // (workflow w's task t is w * n + t); executions are sorted by start.
    ASSERT_EQ(trace.placements().size(), 30u);
    ASSERT_EQ(r.executions.size(), 30u);
    std::vector<bool> seen(30, false);
    for (const PlacementEvent& p : trace.placements()) {
      SCOPED_TRACE("task " + std::to_string(p.task));
      ASSERT_LT(p.task, 30u);
      EXPECT_FALSE(seen[p.task]);
      seen[p.task] = true;
      const auto it = std::find_if(
          r.executions.begin(), r.executions.end(),
          [&](const core::StreamTaskExec& e) {
            return e.workflow == p.task / n && e.task == p.task % n;
          });
      ASSERT_NE(it, r.executions.end());
      EXPECT_EQ(p.proc, it->proc);
      EXPECT_EQ(p.start, it->start);
      EXPECT_EQ(p.finish, it->finish);
      EXPECT_FALSE(p.duplicate);
    }
    ASSERT_TRUE(trace.has_end());
    EXPECT_EQ(trace.end().makespan, r.makespan);
    EXPECT_EQ(trace.end().steps, 30u);
  }
}

// ---------------------------------------------------------------------------
// Experiment harness

TEST(DecisionTrace, ExperimentHarnessFeedsSharedSink) {
  RecordingTrace trace;
  metrics::CompareOptions options;
  options.repetitions = 3;
  options.trace_sink = &trace;
  const auto summaries = metrics::compare_schedulers(
      [](std::uint64_t seed) { return workload::random_workload({}, seed); },
      {"hdlts", "heft"}, core::default_registry(), options);
  ASSERT_EQ(summaries.size(), 2u);
  // 3 reps x 2 schedulers, every run framed by an end event; both emit
  // per-decision steps.
  EXPECT_FALSE(trace.steps().empty());
  EXPECT_TRUE(trace.has_end());
}

// ---------------------------------------------------------------------------
// emit_schedule + global registry wiring

TEST(DecisionTrace, EmitScheduleReplaysTimelines) {
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  const sim::Schedule s = core::Hdlts().schedule(p);
  RecordingTrace trace;
  emit_schedule(&trace, "replayed", s);
  EXPECT_EQ(trace.scheduler(), "replayed");
  EXPECT_EQ(trace.placements().size(), 12u);
  ASSERT_TRUE(trace.has_end());
  EXPECT_DOUBLE_EQ(trace.end().makespan, 73.0);
  EXPECT_EQ(trace.end().duplicates, 2u);
  // Null sink is a no-op.
  emit_schedule(nullptr, "ignored", s);
}

TEST(Metrics, HdltsRunFeedsGlobalRegistry) {
  MetricRegistry& reg = MetricRegistry::global();
  Counter& calls = reg.counter("hdlts.schedule_calls");
  Counter& placed = reg.counter("hdlts.tasks_placed");
  const std::uint64_t calls_before = calls.value();
  const std::uint64_t placed_before = placed.value();
  const sim::Workload w = workload::classic_workload();
  const sim::Problem p(w);
  (void)core::Hdlts().schedule(p);
  EXPECT_EQ(calls.value(), calls_before + 1);
  EXPECT_EQ(placed.value(), placed_before + 10);
  std::ostringstream os;
  write_counters_json(os, reg);
  EXPECT_NE(os.str().find("hdlts.itq_high_water"), std::string::npos);
}

}  // namespace
}  // namespace hdlts::obs
