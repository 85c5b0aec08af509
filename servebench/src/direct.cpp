// The direct library path: the calls an engine worker and the event loop
// make for one request, run in order on the calling thread. The measured
// run uses it as the byte-identity oracle; the traced run wraps each call
// in a span.
#include "bench.hpp"
#include "hdlts/metrics/metrics.hpp"
#include "hdlts/util/error.hpp"

namespace servebench {

namespace {

double critical_path(const sim::Problem& problem) {
  return hdlts::metrics::min_cost_critical_path(problem);
}

std::string without_newline(std::string frame) {
  if (!frame.empty() && frame.back() == '\n') frame.pop_back();
  return frame;
}

}  // namespace

DirectRunner::DirectRunner(const sched::Registry& registry)
    : registry_(registry) {}

DirectRunner::CachedScheduler& DirectRunner::scheduler(
    const std::string& name) {
  auto it = schedulers_.find(name);
  if (it == schedulers_.end()) {
    it = schedulers_
             .emplace(name, CachedScheduler{registry_.make(name),
                                            "sched." + name})
             .first;
  }
  return it->second;
}

void DirectRunner::run(const Request& request, std::uint32_t index,
                       Tracer* tracer, bool want_slr, DirectOutcome& out) {
  out.makespans.clear();
  out.slr = 0.0;
  out.tasks = out.edges = out.decisions = 0;
  out.executions = out.lost_executions = 0;

  const ScopedSpan root(tracer, "request", index);
  net::ParsedRequest parsed;
  {
    const ScopedSpan span(tracer, "net.parse", index, root.id());
    parsed = net::parse_request(request.frame, limits_);
  }

  if (parsed.job == svc::BatchJob::kStream) {
    if (!stream_.has_value()) {
      stream_.emplace(parsed.stream_options);
    } else if (stream_->options().policy != parsed.stream_options.policy ||
               stream_->options().pv != parsed.stream_options.pv) {
      throw hdlts::InvalidArgument("stream requests must share one policy");
    }
    {
      const ScopedSpan span(tracer, "core.stream.compile", index, root.id());
      stream_->compile(parsed.arrivals);
    }
    {
      const ScopedSpan span(tracer, "core.stream.run", index, root.id());
      stream_->run_into(stream_result_);
    }
    {
      const ScopedSpan span(tracer, "net.render", index, root.id());
      out.response = without_newline(net::render_stream_response(
          parsed.id, parsed.tenant, parsed.seed, stream_result_));
    }
    out.makespans.push_back(stream_result_.makespan);
    out.decisions = stream_result_.executions.size();
    for (const core::StreamArrival& a : parsed.arrivals) {
      out.tasks += a.workload.graph.num_tasks();
      out.edges += a.workload.graph.num_edges();
    }
    if (want_slr) {
      double sum = 0.0;
      for (std::size_t w = 0; w < parsed.arrivals.size(); ++w) {
        const sim::Problem own(parsed.arrivals[w].workload);
        sum += stream_result_.flow_time[w] / critical_path(own);
      }
      out.slr = sum / static_cast<double>(parsed.arrivals.size());
    }
    return;
  }

  if (!parsed.generator.has_value()) {
    throw hdlts::InvalidArgument("benchmark requests use generators");
  }
  {
    const ScopedSpan span(tracer, "workload.generate", index, root.id());
    problem_.reset();  // points into the workload being replaced
    workload_.emplace(net::make_workload(*parsed.generator, parsed.seed));
  }
  {
    const ScopedSpan span(tracer, "sim.build", index, root.id());
    problem_.emplace(*workload_);
  }
  out.tasks = workload_->graph.num_tasks();
  out.edges = workload_->graph.num_edges();

  if (parsed.job == svc::BatchJob::kOnline) {
    {
      const ScopedSpan span(tracer, "core.online.run", index, root.id());
      online_.run_into(*problem_, parsed.failures, online_result_);
    }
    {
      const ScopedSpan span(tracer, "net.render", index, root.id());
      out.response = without_newline(net::render_online_response(
          parsed.id, parsed.tenant, parsed.seed, online_result_));
    }
    out.makespans.push_back(online_result_.makespan);
    out.executions = online_result_.executions.size();
    out.lost_executions = online_result_.lost_executions;
    out.decisions = out.executions;
    if (want_slr) out.slr = online_result_.makespan / critical_path(*problem_);
    return;
  }

  double hdlts_makespan = 0.0;
  for (const std::string& name : parsed.schedulers) {
    CachedScheduler& cached = scheduler(name);
    {
      const ScopedSpan span(tracer, cached.span_name.c_str(), index,
                            root.id());
      cached.scheduler->schedule_into(*problem_, schedule_);
    }
    out.makespans.push_back(schedule_.makespan());
    out.decisions += problem_->num_tasks();
    if (name == "hdlts") hdlts_makespan = schedule_.makespan();
  }
  {
    const ScopedSpan span(tracer, "net.render", index, root.id());
    entries_.clear();
    for (std::size_t i = 0; i < parsed.schedulers.size(); ++i) {
      entries_.push_back(net::render_static_entry(parsed.schedulers[i], true,
                                                  out.makespans[i], ""));
    }
    out.response = without_newline(net::render_static_response(
        parsed.id, parsed.tenant, parsed.seed, entries_));
  }
  if (want_slr) out.slr = hdlts_makespan / critical_path(*problem_);
}

}  // namespace servebench
