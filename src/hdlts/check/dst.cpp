#include "hdlts/check/dst.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "hdlts/check/faultplan.hpp"
#include "hdlts/check/validate.hpp"
#include "hdlts/core/periodic.hpp"
#include "hdlts/graph/algorithms.hpp"
#include "hdlts/util/rng.hpp"
#include "hdlts/workload/fft.hpp"
#include "hdlts/workload/forkjoin.hpp"
#include "hdlts/workload/md.hpp"
#include "hdlts/workload/montage.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::check {

namespace {

constexpr const char* kFamilies[] = {"random", "fft", "montage", "md",
                                     "forkjoin"};

/// Builds one family member. `rng` perturbs the shape parameters so rounds
/// exercise different graph sizes; `sub` distinguishes the workflows of a
/// stream cell.
sim::Workload build_workload(std::size_t family, std::size_t num_procs,
                             std::uint64_t seed, std::uint64_t sub,
                             util::Rng& rng) {
  workload::CostParams costs;
  costs.num_procs = num_procs;
  costs.ccr = rng.uniform(0.5, 2.0);
  const std::uint64_t wseed = util::derive_seed(seed, sub);
  switch (family) {
    case 0: {
      workload::RandomDagParams p;
      p.num_tasks = static_cast<std::size_t>(rng.uniform_int(16, 36));
      p.alpha = rng.chance(0.5) ? 1.0 : 2.0;
      p.costs = costs;
      return workload::random_workload(p, wseed);
    }
    case 1: {
      workload::FftParams p;
      p.points = 8;
      p.costs = costs;
      return workload::fft_workload(p, wseed);
    }
    case 2: {
      workload::MontageParams p;
      p.num_nodes = static_cast<std::size_t>(rng.uniform_int(20, 40));
      p.costs = costs;
      return workload::montage_workload(p, wseed);
    }
    case 3: {
      workload::MdParams p;
      p.costs = costs;
      return workload::md_workload(p, wseed);
    }
    default: {
      workload::ForkJoinParams p;
      p.chains = static_cast<std::size_t>(rng.uniform_int(3, 5));
      p.length = static_cast<std::size_t>(rng.uniform_int(3, 5));
      p.costs = costs;
      return workload::forkjoin_workload(p, wseed);
    }
  }
}

/// The workload induced by the first `m` tasks of `topo` (a topological
/// prefix is always a DAG, so the result is a valid workload).
sim::Workload induced_prefix(const sim::Workload& w,
                             const std::vector<graph::TaskId>& topo,
                             std::size_t m) {
  const std::size_t np = w.platform.num_procs();
  std::vector<graph::TaskId> map(w.graph.num_tasks(), graph::kInvalidTask);
  graph::TaskGraph g;
  for (std::size_t i = 0; i < m; ++i) {
    map[topo[i]] = g.add_task(w.graph.name(topo[i]), w.graph.work(topo[i]));
  }
  sim::CostTable costs(m, np);
  for (std::size_t i = 0; i < m; ++i) {
    const graph::TaskId u = topo[i];
    for (const graph::Adjacent& c : w.graph.children(u)) {
      if (map[c.task] != graph::kInvalidTask) {
        g.add_edge(map[u], map[c.task], c.data);
      }
    }
    for (std::size_t p = 0; p < np; ++p) {
      costs.set(map[u], static_cast<platform::ProcId>(p),
                w.costs(u, static_cast<platform::ProcId>(p)));
    }
  }
  return {std::move(g), std::move(costs), w.platform};
}

/// Appends a violation for the first field where the compiled online result
/// diverges from the legacy reference (exact ==, no tolerance).
void diff_online(const core::OnlineResult& compiled,
                 const core::OnlineResult& legacy,
                 std::vector<std::string>* out) {
  if (compiled.completed != legacy.completed) {
    out->push_back("compiled/legacy divergence: completed flag");
    return;
  }
  if (compiled.makespan != legacy.makespan) {
    out->push_back("compiled/legacy divergence: makespan " +
                   std::to_string(compiled.makespan) + " vs " +
                   std::to_string(legacy.makespan));
    return;
  }
  if (compiled.lost_executions != legacy.lost_executions) {
    out->push_back("compiled/legacy divergence: lost_executions " +
                   std::to_string(compiled.lost_executions) + " vs " +
                   std::to_string(legacy.lost_executions));
    return;
  }
  if (compiled.executions.size() != legacy.executions.size()) {
    out->push_back("compiled/legacy divergence: execution count " +
                   std::to_string(compiled.executions.size()) + " vs " +
                   std::to_string(legacy.executions.size()));
    return;
  }
  for (std::size_t i = 0; i < compiled.executions.size(); ++i) {
    const core::OnlineExec& a = compiled.executions[i];
    const core::OnlineExec& b = legacy.executions[i];
    if (a.task != b.task || a.proc != b.proc || a.start != b.start ||
        a.finish != b.finish || a.duplicate != b.duplicate ||
        a.lost != b.lost) {
      out->push_back("compiled/legacy divergence: execution #" +
                     std::to_string(i) + " (task " + std::to_string(a.task) +
                     " vs " + std::to_string(b.task) + ")");
      return;
    }
  }
}

/// Same for the stream scheduler.
void diff_stream(const core::StreamResult& compiled,
                 const core::StreamResult& legacy,
                 std::vector<std::string>* out) {
  if (compiled.makespan != legacy.makespan) {
    out->push_back("compiled/legacy stream divergence: makespan " +
                   std::to_string(compiled.makespan) + " vs " +
                   std::to_string(legacy.makespan));
    return;
  }
  if (compiled.finish != legacy.finish ||
      compiled.flow_time != legacy.flow_time) {
    out->push_back("compiled/legacy stream divergence: per-workflow times");
    return;
  }
  if (compiled.executions.size() != legacy.executions.size()) {
    out->push_back("compiled/legacy stream divergence: execution count " +
                   std::to_string(compiled.executions.size()) + " vs " +
                   std::to_string(legacy.executions.size()));
    return;
  }
  for (std::size_t i = 0; i < compiled.executions.size(); ++i) {
    const core::StreamTaskExec& a = compiled.executions[i];
    const core::StreamTaskExec& b = legacy.executions[i];
    if (a.workflow != b.workflow || a.task != b.task || a.proc != b.proc ||
        a.start != b.start || a.finish != b.finish) {
      out->push_back("compiled/legacy stream divergence: execution #" +
                     std::to_string(i));
      return;
    }
  }
  if (compiled.deadline_missed != legacy.deadline_missed ||
      compiled.deadline_misses != legacy.deadline_misses ||
      compiled.hard_deadline_misses != legacy.hard_deadline_misses) {
    out->push_back("compiled/legacy stream divergence: deadline accounting");
  }
}

/// Runs one online scenario and returns every complaint, including the
/// plan's forced-outcome check and the compiled-vs-legacy differential.
std::vector<std::string> run_and_validate(
    const sim::Workload& workload, const std::vector<core::ProcFailure>& plan,
    PlanExpectation expect, const core::HdltsOptions& options) {
  const core::OnlineResult result = core::run_online(workload, plan, options);
  const OnlineValidator validator(options);
  std::vector<std::string> violations =
      validator.validate(workload, plan, result);
  if (expect == PlanExpectation::kMustComplete && !result.completed) {
    violations.push_back(
        "plan leaves a processor alive but the run did not complete");
  }
  if (expect == PlanExpectation::kMustFail && result.completed) {
    violations.push_back(
        "every processor fails at t = 0 but the run completed");
  }
  const core::OnlineResult reference =
      core::run_online_legacy(workload, plan, options);
  diff_online(result, reference, &violations);
  return violations;
}

std::string describe_plan(const std::vector<core::ProcFailure>& plan) {
  std::string out = "[";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(plan[i].proc) + "@" + std::to_string(plan[i].time);
  }
  return out + "]";
}

/// Shrinks a failing scenario: greedily drop fault-plan entries, then
/// bisect the task graph down a topological prefix. Both passes only keep a
/// reduction when the reduced scenario still fails, so the result is always
/// a genuine counterexample.
std::string minimize(const sim::Workload& workload,
                     std::vector<core::ProcFailure> plan,
                     PlanExpectation expect,
                     const core::HdltsOptions& options, std::uint64_t seed,
                     const std::string& family) {
  // Dropping a failure can change the forced outcome (e.g. removing one of
  // the all-die-at-zero entries may allow completion), so the minimizer
  // only chases *validator* complaints once it starts mutating: a scenario
  // "fails" when the invariant replay complains, with the original
  // expectation kept only while the plan is intact.
  auto fails = [&](const sim::Workload& w,
                   const std::vector<core::ProcFailure>& p,
                   PlanExpectation e) {
    return !run_and_validate(w, p, e, options).empty();
  };

  for (std::size_t i = 0; i < plan.size();) {
    std::vector<core::ProcFailure> reduced = plan;
    reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(i));
    if (fails(workload, reduced, PlanExpectation::kEither)) {
      plan = std::move(reduced);
    } else {
      ++i;
    }
  }
  PlanExpectation expect_now = expect;
  if (!fails(workload, plan, expect_now)) {
    expect_now = PlanExpectation::kEither;
  }

  const auto topo = graph::topological_order(workload.graph);
  sim::Workload best = workload;
  std::size_t best_m = topo.size();
  std::size_t lo = 1;
  std::size_t hi = topo.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const sim::Workload candidate = induced_prefix(workload, topo, mid);
    if (fails(candidate, plan, expect_now)) {
      best = candidate;
      best_m = mid;
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  const auto violations = run_and_validate(best, plan, expect_now, options);
  std::string repro = "seed=" + std::to_string(seed) + " family=" + family +
                      " tasks=" + std::to_string(best_m) + "/" +
                      std::to_string(topo.size()) +
                      " failures=" + describe_plan(plan);
  if (!violations.empty()) repro += " violation: " + violations.front();
  return repro;
}

}  // namespace

DstReport run_dst(const DstOptions& options) {
  DstReport report;
  const std::size_t num_families = std::size(kFamilies);

  for (std::size_t family = 0; family < num_families; ++family) {
    for (std::size_t round = 0; round < options.rounds; ++round) {
      const std::uint64_t seed =
          util::derive_seed(options.base_seed, family, round);
      util::Rng rng(seed);
      const std::size_t num_procs =
          static_cast<std::size_t>(rng.uniform_int(3, 4));

      core::HdltsOptions hdlts;
      hdlts.duplication = (round % 3 == 2) ? core::DuplicationRule::kOff
                                           : core::DuplicationRule::kAnyChildBenefits;
      hdlts.dynamic_priorities = round % 2 == 0;

      const sim::Workload workload =
          build_workload(family, num_procs, seed, 0, rng);
      const double clean_makespan =
          core::Hdlts(hdlts).schedule(sim::Problem(workload)).makespan();

      for (const FaultPlan& plan :
           make_fault_plans(num_procs, clean_makespan, seed)) {
        ++report.online_runs;
        auto violations = run_and_validate(workload, plan.failures,
                                           plan.expectation, hdlts);
        if (violations.empty()) continue;
        DstCounterexample cx;
        cx.seed = seed;
        cx.family = kFamilies[family];
        cx.scenario = plan.description;
        cx.violations = std::move(violations);
        cx.reproducer =
            options.minimize
                ? minimize(workload, plan.failures, plan.expectation, hdlts,
                           seed, kFamilies[family])
                : "seed=" + std::to_string(seed) + " family=" +
                      kFamilies[family] +
                      " failures=" + describe_plan(plan.failures);
        report.counterexamples.push_back(std::move(cx));
      }

      if (!options.include_stream) continue;
      std::vector<core::StreamArrival> arrivals;
      arrivals.push_back({workload, 0.0});
      arrivals.push_back(
          {build_workload(family, num_procs, seed, 1, rng),
           0.4 * clean_makespan});
      arrivals.push_back(
          {build_workload(family, num_procs, seed, 2, rng),
           0.9 * clean_makespan});
      for (const core::StreamPolicy policy :
           {core::StreamPolicy::kHdltsPv, core::StreamPolicy::kFifoEft}) {
        ++report.stream_runs;
        core::StreamOptions sopt;
        sopt.policy = policy;
        const core::StreamResult sres = core::run_stream(arrivals, sopt);
        const StreamValidator svalidator(sopt);
        auto violations = svalidator.validate(arrivals, sres);
        const core::StreamResult sref =
            core::run_stream_legacy(arrivals, sopt);
        diff_stream(sres, sref, &violations);
        if (violations.empty()) continue;
        DstCounterexample cx;
        cx.seed = seed;
        cx.family = kFamilies[family];
        cx.scenario = policy == core::StreamPolicy::kHdltsPv
                          ? "stream (hdlts-pv policy)"
                          : "stream (fifo-eft policy)";
        cx.violations = std::move(violations);
        cx.reproducer = "seed=" + std::to_string(seed) + " family=" +
                        kFamilies[family] + " scenario=" + cx.scenario +
                        " violation: " + cx.violations.front();
        report.counterexamples.push_back(std::move(cx));
      }

      if (!options.include_periodic) continue;
      // Periodic round: jittered arrivals with soft/hard deadlines on a
      // pre-occupied platform, replayed through the deadline-aware
      // validator and the legacy differential.
      const core::PeriodicStreamParams pparams;
      const core::PeriodicStream periodic = core::make_periodic_stream(
          pparams,
          [&](std::size_t index, std::uint64_t wseed) {
            util::Rng wf_rng(wseed);
            return build_workload(family, num_procs, seed, 100 + index,
                                  wf_rng);
          },
          seed);
      ++report.stream_runs;
      core::StreamOptions sopt;
      sopt.policy = core::StreamPolicy::kHdltsPv;
      const core::StreamResult pres =
          core::run_stream(periodic.arrivals, sopt, nullptr, periodic.busy);
      const StreamValidator pvalidator(sopt);
      auto violations =
          pvalidator.validate(periodic.arrivals, periodic.busy, pres);
      const core::StreamResult pref = core::run_stream_legacy(
          periodic.arrivals, sopt, nullptr, periodic.busy);
      diff_stream(pres, pref, &violations);
      if (!violations.empty()) {
        DstCounterexample cx;
        cx.seed = seed;
        cx.family = kFamilies[family];
        cx.scenario = "stream (periodic deadlines + busy intervals)";
        cx.violations = std::move(violations);
        cx.reproducer = "seed=" + std::to_string(seed) + " family=" +
                        kFamilies[family] + " scenario=" + cx.scenario +
                        " violation: " + cx.violations.front();
        report.counterexamples.push_back(std::move(cx));
      }
    }
  }
  return report;
}

}  // namespace hdlts::check
