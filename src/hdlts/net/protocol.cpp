#include "hdlts/net/protocol.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "hdlts/io/workload_io.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/util/json_parse.hpp"
#include "hdlts/workload/fft.hpp"
#include "hdlts/workload/gauss.hpp"
#include "hdlts/workload/md.hpp"
#include "hdlts/workload/montage.hpp"
#include "hdlts/workload/random_dag.hpp"

namespace hdlts::net {

namespace {

[[noreturn]] void fail(ErrorCode code, const std::string& message) {
  throw ProtocolError(code, message);
}

/// A non-negative integral JSON number (ids, seeds, sizes are all uints on
/// the wire; 2^53 bounds what a double can hold exactly).
std::uint64_t as_uint(const util::JsonValue& v, const char* what) {
  if (!v.is_number()) {
    fail(ErrorCode::kMalformedRequest,
         std::string(what) + " must be a number");
  }
  const double d = v.as_number();
  if (!(d >= 0) || d != std::floor(d) || d > 9007199254740992.0) {
    fail(ErrorCode::kMalformedRequest,
         std::string(what) + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

double as_double(const util::JsonValue& v, const char* what) {
  if (!v.is_number()) {
    fail(ErrorCode::kMalformedRequest,
         std::string(what) + " must be a number");
  }
  return v.as_number();
}

const std::string& as_string(const util::JsonValue& v, const char* what) {
  if (!v.is_string()) {
    fail(ErrorCode::kMalformedRequest,
         std::string(what) + " must be a string");
  }
  return v.as_string();
}

GeneratorSpec parse_generator(const util::JsonValue& v, const Limits& limits) {
  if (!v.is_object()) {
    fail(ErrorCode::kMalformedRequest, "generator must be an object");
  }
  GeneratorSpec spec;
  for (const auto& [key, value] : v.as_object()) {
    if (key == "kind") {
      spec.kind = as_string(value, "generator.kind");
    } else if (key == "tasks") {
      spec.tasks = static_cast<std::size_t>(as_uint(value, "generator.tasks"));
    } else if (key == "alpha") {
      spec.alpha = as_double(value, "generator.alpha");
    } else if (key == "density") {
      spec.density =
          static_cast<std::size_t>(as_uint(value, "generator.density"));
    } else if (key == "points") {
      spec.points =
          static_cast<std::size_t>(as_uint(value, "generator.points"));
    } else if (key == "nodes") {
      spec.nodes = static_cast<std::size_t>(as_uint(value, "generator.nodes"));
    } else if (key == "matrix") {
      spec.matrix =
          static_cast<std::size_t>(as_uint(value, "generator.matrix"));
    } else if (key == "cpus") {
      spec.cpus = static_cast<std::size_t>(as_uint(value, "generator.cpus"));
    } else if (key == "ccr") {
      spec.ccr = as_double(value, "generator.ccr");
    } else if (key == "beta") {
      spec.beta = as_double(value, "generator.beta");
    } else if (key == "wdag") {
      spec.wdag = as_double(value, "generator.wdag");
    } else {
      fail(ErrorCode::kMalformedRequest, "unknown generator key '" + key + "'");
    }
  }
  if (spec.kind != "random" && spec.kind != "fft" && spec.kind != "montage" &&
      spec.kind != "md" && spec.kind != "gauss") {
    fail(ErrorCode::kMalformedRequest,
         "unknown generator kind '" + spec.kind + "'");
  }
  if (spec.cpus == 0) {
    fail(ErrorCode::kMalformedRequest, "generator.cpus must be >= 1");
  }
  if (spec.cpus > limits.max_procs) {
    fail(ErrorCode::kOverLimits, "generator.cpus exceeds max_procs limit");
  }
  // Rough task-count bound per kind, checked before the expensive build.
  // fft(points=m) builds ~2m recursive + m*log2(m) butterfly tasks;
  // gauss(n) builds n(n+1)/2 - 1; montage/md are ~nodes and fixed-size.
  std::size_t approx_tasks = spec.tasks;
  if (spec.kind == "fft") {
    std::size_t m = spec.points, lg = 0;
    while (m > 1) {
      m /= 2;
      ++lg;
    }
    approx_tasks = 2 * spec.points + spec.points * lg;
  } else if (spec.kind == "montage") {
    approx_tasks = spec.nodes + 16;
  } else if (spec.kind == "md") {
    approx_tasks = 41;
  } else if (spec.kind == "gauss") {
    approx_tasks = spec.matrix * (spec.matrix + 1) / 2;
  }
  if (approx_tasks > limits.max_tasks) {
    fail(ErrorCode::kOverLimits, "generated task count exceeds max_tasks");
  }
  return spec;
}

workload::CostParams cost_params(const GeneratorSpec& spec) {
  workload::CostParams costs;
  costs.num_procs = spec.cpus;
  costs.ccr = spec.ccr;
  costs.beta = spec.beta;
  costs.wdag = spec.wdag;
  return costs;
}

sim::Workload parse_inline_workload(const util::JsonValue& v,
                                    const Limits& limits) {
  const std::string& text = as_string(v, "workload");
  if (text.size() > limits.max_workload_bytes) {
    fail(ErrorCode::kOverLimits, "inline workload exceeds max_workload_bytes");
  }
  std::istringstream is(text);
  try {
    // The caps are checked before the platform's P x P bandwidths and the
    // V x P cost table are allocated.
    return io::read_workload(is, {limits.max_tasks, limits.max_procs});
  } catch (const io::LimitExceeded& e) {
    fail(ErrorCode::kOverLimits, std::string("inline ") + e.what());
  } catch (const std::exception& e) {
    fail(ErrorCode::kMalformedRequest,
         std::string("bad inline workload: ") + e.what());
  }
}

void append_key(std::string& out, std::string_view key) {
  out += '"';
  out += key;
  out += "\":";
}

void append_string(std::string& out, std::string_view key,
                   std::string_view value) {
  append_key(out, key);
  out += '"';
  out += util::json_escape(value);
  out += '"';
}

void append_uint(std::string& out, std::string_view key, std::uint64_t value) {
  append_key(out, key);
  out += std::to_string(value);
}

void append_context(std::string& out, std::optional<std::uint64_t> id,
                    std::string_view tenant) {
  if (id.has_value()) {
    out += ',';
    append_uint(out, "id", *id);
  }
  if (!tenant.empty()) {
    out += ',';
    append_string(out, "tenant", tenant);
  }
}

}  // namespace

std::string_view error_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedRequest:
      return "MalformedRequest";
    case ErrorCode::kOverLimits:
      return "OverLimits";
    case ErrorCode::kQueueFull:
      return "QueueFull";
    case ErrorCode::kInternal:
      return "Internal";
  }
  return "Internal";
}

sim::Workload make_workload(const GeneratorSpec& spec, std::uint64_t seed) {
  if (spec.kind == "random") {
    workload::RandomDagParams p;
    p.num_tasks = spec.tasks;
    p.alpha = spec.alpha;
    p.density = spec.density;
    p.costs = cost_params(spec);
    return workload::random_workload(p, seed);
  }
  if (spec.kind == "fft") {
    workload::FftParams p;
    p.points = spec.points;
    p.costs = cost_params(spec);
    return workload::fft_workload(p, seed);
  }
  if (spec.kind == "montage") {
    workload::MontageParams p;
    p.num_nodes = spec.nodes;
    p.costs = cost_params(spec);
    return workload::montage_workload(p, seed);
  }
  if (spec.kind == "md") {
    workload::MdParams p;
    p.costs = cost_params(spec);
    return workload::md_workload(p, seed);
  }
  if (spec.kind == "gauss") {
    workload::GaussParams p;
    p.matrix_size = spec.matrix;
    p.costs = cost_params(spec);
    return workload::gauss_workload(p, seed);
  }
  throw InvalidArgument("unknown generator kind '" + spec.kind + "'");
}

ParsedRequest parse_request(std::string_view frame, const Limits& limits) {
  ParsedRequest req;
  // Parse, then salvage id/tenant for the error response before validating
  // anything else, so even schema violations correlate on the wire.
  util::JsonValue root;
  try {
    root = util::parse_json(frame);
  } catch (const util::JsonParseError& e) {
    fail(ErrorCode::kMalformedRequest, e.what());
  }
  if (!root.is_object()) {
    fail(ErrorCode::kMalformedRequest, "request frame must be a JSON object");
  }
  std::optional<std::uint64_t> salvage_id;
  std::string salvage_tenant;
  if (const auto* id = root.find("id"); id != nullptr && id->is_number()) {
    const double d = id->as_number();
    if (d >= 0 && d == std::floor(d) && d <= 9007199254740992.0) {
      salvage_id = static_cast<std::uint64_t>(d);
    }
  }
  if (const auto* t = root.find("tenant"); t != nullptr && t->is_string()) {
    salvage_tenant = t->as_string();
  }
  try {
    const auto* op = root.find("op");
    if (op == nullptr) {
      fail(ErrorCode::kMalformedRequest, "missing op");
    }
    const std::string& verb = as_string(*op, "op");
    if (verb == "ping") {
      req.verb = Verb::kPing;
    } else if (verb == "stats") {
      req.verb = Verb::kStats;
    } else if (verb == "drain") {
      req.verb = Verb::kDrain;
    } else if (verb == "submit") {
      req.verb = Verb::kSubmit;
    } else {
      fail(ErrorCode::kMalformedRequest, "unknown op '" + verb + "'");
    }
    req.id = salvage_id;
    if (const auto* id = root.find("id"); id != nullptr && !req.id) {
      as_uint(*id, "id");  // present but not a valid uint: report why
    }
    if (!salvage_tenant.empty()) req.tenant = salvage_tenant;
    if (const auto* t = root.find("tenant");
        t != nullptr && (!t->is_string() || t->as_string().empty())) {
      fail(ErrorCode::kMalformedRequest, "tenant must be a non-empty string");
    }
    if (req.tenant.size() > 64) {
      fail(ErrorCode::kMalformedRequest, "tenant name too long (max 64)");
    }
    if (req.verb != Verb::kSubmit) return req;

    std::string kind = "static";
    if (const auto* k = root.find("kind"); k != nullptr) {
      kind = as_string(*k, "kind");
    }
    if (kind == "static") {
      req.job = svc::BatchJob::kStatic;
    } else if (kind == "online") {
      req.job = svc::BatchJob::kOnline;
    } else if (kind == "stream") {
      req.job = svc::BatchJob::kStream;
    } else {
      fail(ErrorCode::kMalformedRequest, "unknown kind '" + kind + "'");
    }
    if (const auto* s = root.find("seed"); s != nullptr) {
      req.seed = as_uint(*s, "seed");
    }

    const auto* workload = root.find("workload");
    const auto* generator = root.find("generator");
    if (req.job == svc::BatchJob::kStream) {
      if (workload != nullptr || generator != nullptr) {
        fail(ErrorCode::kMalformedRequest,
             "stream submits take arrivals, not workload/generator");
      }
      const auto* arrivals = root.find("arrivals");
      if (arrivals == nullptr || !arrivals->is_array() ||
          arrivals->as_array().empty()) {
        fail(ErrorCode::kMalformedRequest,
             "stream submits need a non-empty arrivals array");
      }
      if (arrivals->as_array().size() > limits.max_arrivals) {
        fail(ErrorCode::kOverLimits, "arrivals exceeds max_arrivals");
      }
      for (const auto& entry : arrivals->as_array()) {
        if (!entry.is_object()) {
          fail(ErrorCode::kMalformedRequest,
               "each arrival must be an object");
        }
        double arrival_time = 0.0;
        if (const auto* at = entry.find("arrival"); at != nullptr) {
          arrival_time = as_double(*at, "arrival.arrival");
          if (!std::isfinite(arrival_time) || !(arrival_time >= 0)) {
            fail(ErrorCode::kMalformedRequest,
                 "arrival.arrival must be finite and >= 0");
          }
        }
        const auto* wl = entry.find("workload");
        const auto* gen = entry.find("generator");
        if ((wl != nullptr) == (gen != nullptr)) {
          fail(ErrorCode::kMalformedRequest,
               "each arrival needs exactly one of workload/generator");
        }
        if (wl != nullptr) {
          req.arrivals.push_back(
              {parse_inline_workload(*wl, limits), arrival_time});
        } else {
          const GeneratorSpec spec = parse_generator(*gen, limits);
          std::uint64_t seed = req.seed;
          if (const auto* s = entry.find("seed"); s != nullptr) {
            seed = as_uint(*s, "arrival.seed");
          }
          req.arrivals.push_back({make_workload(spec, seed), arrival_time});
        }
      }
      if (const auto* policy = root.find("policy"); policy != nullptr) {
        const std::string& p = as_string(*policy, "policy");
        if (p == "pv") {
          req.stream_options.policy = core::StreamPolicy::kHdltsPv;
        } else if (p == "fifo") {
          req.stream_options.policy = core::StreamPolicy::kFifoEft;
        } else {
          fail(ErrorCode::kMalformedRequest, "unknown policy '" + p + "'");
        }
      }
      return req;
    }

    if ((workload != nullptr) == (generator != nullptr)) {
      fail(ErrorCode::kMalformedRequest,
           "submit needs exactly one of workload/generator");
    }
    if (workload != nullptr) {
      req.workload = parse_inline_workload(*workload, limits);
    } else {
      req.generator = parse_generator(*generator, limits);
    }

    if (req.job == svc::BatchJob::kStatic) {
      const auto* schedulers = root.find("schedulers");
      if (schedulers == nullptr || !schedulers->is_array() ||
          schedulers->as_array().empty()) {
        fail(ErrorCode::kMalformedRequest,
             "static submits need a non-empty schedulers array");
      }
      if (schedulers->as_array().size() > limits.max_schedulers) {
        fail(ErrorCode::kOverLimits, "schedulers exceeds max_schedulers");
      }
      for (const auto& name : schedulers->as_array()) {
        req.schedulers.push_back(as_string(name, "schedulers[]"));
      }
      if (root.find("failures") != nullptr) {
        fail(ErrorCode::kMalformedRequest,
             "failures are only valid on online submits");
      }
    } else {  // kOnline
      if (root.find("schedulers") != nullptr) {
        fail(ErrorCode::kMalformedRequest,
             "schedulers are only valid on static submits");
      }
      if (const auto* failures = root.find("failures"); failures != nullptr) {
        if (!failures->is_array()) {
          fail(ErrorCode::kMalformedRequest, "failures must be an array");
        }
        if (failures->as_array().size() > limits.max_failures) {
          fail(ErrorCode::kOverLimits, "failures exceeds max_failures");
        }
        for (const auto& entry : failures->as_array()) {
          if (!entry.is_object()) {
            fail(ErrorCode::kMalformedRequest,
                 "each failure must be an object");
          }
          core::ProcFailure failure;
          const auto* proc = entry.find("proc");
          if (proc == nullptr) {
            fail(ErrorCode::kMalformedRequest, "failure needs a proc");
          }
          const std::uint64_t proc_id = as_uint(*proc, "failure.proc");
          if (proc_id > std::numeric_limits<platform::ProcId>::max()) {
            fail(ErrorCode::kMalformedRequest, "failure.proc out of range");
          }
          failure.proc = static_cast<platform::ProcId>(proc_id);
          if (const auto* time = entry.find("time"); time != nullptr) {
            failure.time = as_double(*time, "failure.time");
            if (!(failure.time >= 0)) {
              fail(ErrorCode::kMalformedRequest, "failure.time must be >= 0");
            }
          }
          req.failures.push_back(failure);
        }
      }
    }
    if (root.find("arrivals") != nullptr) {
      fail(ErrorCode::kMalformedRequest,
           "arrivals are only valid on stream submits");
    }
    return req;
  } catch (ProtocolError& e) {
    e.set_context(salvage_id, salvage_tenant);
    throw;
  }
}

std::string render_error(ErrorCode code, std::string_view message,
                         std::optional<std::uint64_t> id,
                         std::string_view tenant) {
  std::string out = "{\"ok\":false,";
  append_uint(out, "code", static_cast<std::uint64_t>(code));
  out += ',';
  append_string(out, "error", error_name(code));
  out += ',';
  append_string(out, "message", message);
  append_context(out, id, tenant);
  out += "}\n";
  return out;
}

std::string render_pong() { return "{\"ok\":true,\"op\":\"ping\"}\n"; }

std::string render_drain_ack() {
  return "{\"ok\":true,\"op\":\"drain\",\"draining\":true}\n";
}

std::string render_stats(const StatsSnapshot& s) {
  std::string out = "{\"ok\":true,\"op\":\"stats\",";
  append_uint(out, "accepted", s.accepted);
  out += ',';
  append_uint(out, "rejected", s.rejected);
  out += ',';
  append_uint(out, "completed", s.completed);
  out += ',';
  append_uint(out, "active_sessions", s.active_sessions);
  out += ',';
  append_uint(out, "queued", s.queued);
  out += ',';
  append_uint(out, "engine_submitted", s.engine_submitted);
  out += ',';
  append_uint(out, "engine_completed", s.engine_completed);
  out += ',';
  append_uint(out, "engine_cancelled", s.engine_cancelled);
  out += ",\"draining\":";
  out += s.draining ? "true" : "false";
  out += "}\n";
  return out;
}

std::string render_static_entry(std::string_view scheduler, bool ok,
                                double makespan, std::string_view error) {
  std::string out = "{";
  append_string(out, "scheduler", scheduler);
  if (ok) {
    out += ",\"ok\":true,";
    append_key(out, "makespan");
    out += util::json_number(makespan);
  } else {
    out += ",\"ok\":false,";
    append_string(out, "error", error);
  }
  out += '}';
  return out;
}

namespace {

std::string render_submit_prefix(std::optional<std::uint64_t> id,
                                 std::string_view tenant,
                                 std::string_view kind, std::uint64_t seed) {
  std::string out = "{\"ok\":true";
  append_context(out, id, tenant);
  out += ',';
  append_string(out, "kind", kind);
  out += ',';
  append_uint(out, "seed", seed);
  return out;
}

void append_number_array(std::string& out, std::string_view key,
                         const std::vector<double>& values) {
  append_key(out, key);
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += util::json_number(values[i]);
  }
  out += ']';
}

}  // namespace

std::string render_static_response(std::optional<std::uint64_t> id,
                                   std::string_view tenant, std::uint64_t seed,
                                   const std::vector<std::string>& entries) {
  std::string out = render_submit_prefix(id, tenant, "static", seed);
  out += ",\"results\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ',';
    out += entries[i];
  }
  out += "]}\n";
  return out;
}

std::string render_online_response(std::optional<std::uint64_t> id,
                                   std::string_view tenant, std::uint64_t seed,
                                   const core::OnlineResult& result) {
  std::string out = render_submit_prefix(id, tenant, "online", seed);
  out += ",\"completed\":";
  out += result.completed ? "true" : "false";
  out += ',';
  append_key(out, "makespan");
  out += util::json_number(result.makespan);
  out += ',';
  append_uint(out, "executions", result.executions.size());
  out += ',';
  append_uint(out, "lost_executions", result.lost_executions);
  out += "}\n";
  return out;
}

std::string render_stream_response(std::optional<std::uint64_t> id,
                                   std::string_view tenant, std::uint64_t seed,
                                   const core::StreamResult& result) {
  std::string out = render_submit_prefix(id, tenant, "stream", seed);
  out += ',';
  append_key(out, "makespan");
  out += util::json_number(result.makespan);
  out += ',';
  append_uint(out, "executions", result.executions.size());
  out += ',';
  append_number_array(out, "finish", result.finish);
  out += ',';
  append_number_array(out, "flow_time", result.flow_time);
  out += "}\n";
  return out;
}

bool is_metrics_request(std::string_view frame) {
  if (frame == "GET /metrics") return true;
  return frame.rfind("GET /metrics ", 0) == 0;
}

std::string render_metrics_http(std::string_view body) {
  std::string out = "HTTP/1.0 200 OK\r\n";
  out += "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace hdlts::net
