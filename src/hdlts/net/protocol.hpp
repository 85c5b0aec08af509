// The serve wire protocol (docs/SERVICE.md): newline-delimited JSON frames,
// one request or response per line, plus one HTTP-flavoured escape hatch
// ("GET /metrics") so a Prometheus scraper can hit the same port.
//
// This header is the *pure* half of the service: parsing a request frame
// into a ParsedRequest and rendering responses to byte-exact strings, with
// no sockets anywhere. The split is what makes the service contract
// testable — tests/net_test.cpp pins golden fixtures for every verb and
// every error code against these functions, so a wire-format regression
// fails a unit test long before the e2e CI leg runs.
//
// Error taxonomy (the `code` field of error responses, mirroring the
// command-dispatch style of document databases: one small closed set the
// client can switch on, with the human detail in `message`):
//   1 MalformedRequest  — frame isn't valid JSON or violates the schema
//   2 OverLimits        — request is well-formed but exceeds a server limit
//   3 QueueFull         — admission control rejected it (tenant queue full,
//                         too many tenants, draining)
//   4 Internal          — scheduling itself failed (generator threw, ...)
//
// Byte-exactness: responses render with a fixed key order, util::json_escape
// strings and util::json_number (%.17g) doubles, and exactly one trailing
// '\n'. Clients may rely on makespans round-tripping bit-identically to a
// local run of the same engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/error.hpp"

namespace hdlts::net {

enum class ErrorCode : int {
  kMalformedRequest = 1,
  kOverLimits = 2,
  kQueueFull = 3,
  kInternal = 4,
};

/// Stable wire name ("MalformedRequest", ...) for the `error` field.
std::string_view error_name(ErrorCode code);

/// Server-side admission limits a well-formed request may still exceed
/// (-> kOverLimits). Frame length is enforced earlier by LineFramer but
/// lives here so the whole contract is one struct.
struct Limits {
  std::size_t max_frame_bytes = 1 << 20;
  std::size_t max_tasks = 20000;      ///< generated or inline, per workflow
  std::size_t max_procs = 256;
  std::size_t max_schedulers = 16;    ///< per static submit
  std::size_t max_failures = 64;      ///< per online submit
  std::size_t max_arrivals = 64;      ///< per stream submit
  std::size_t max_workload_bytes = 1 << 20;  ///< inline workload text
};

enum class Verb {
  kSubmit,
  kPing,
  kStats,
  kDrain,
};

/// A named workload generator invocation; the parameter set mirrors
/// `workflow_tool generate` so a submit frame and the CLI speak the same
/// dialect. Materialisation is deferred (make_workload) so the engine can
/// run it on a worker thread instead of the server's event loop.
struct GeneratorSpec {
  std::string kind = "random";  ///< random|fft|montage|md|gauss
  std::size_t tasks = 100;      ///< random
  double alpha = 1.0;           ///< random: height/width shape
  std::size_t density = 3;      ///< random: out-degree bound
  std::size_t points = 16;      ///< fft
  std::size_t nodes = 50;       ///< montage
  std::size_t matrix = 8;       ///< gauss
  std::size_t cpus = 4;
  double ccr = 1.0;
  double beta = 0.8;
  double wdag = 50.0;
};

/// Runs the generator (throws InvalidArgument on an unknown kind — parse
/// already rejected those, so a throw here is a caller bug).
sim::Workload make_workload(const GeneratorSpec& spec, std::uint64_t seed);

/// Thrown by parse_request; carries the taxonomy code plus whatever id /
/// tenant could be salvaged from the broken frame, so the server can still
/// correlate the error response for the client.
class ProtocolError : public Error {
 public:
  ProtocolError(ErrorCode code, const std::string& message)
      : Error(message), code_(code) {}

  ErrorCode code() const { return code_; }
  const std::optional<std::uint64_t>& id() const { return id_; }
  const std::string& tenant() const { return tenant_; }

  void set_context(std::optional<std::uint64_t> id, std::string tenant) {
    id_ = id;
    tenant_ = std::move(tenant);
  }

 private:
  ErrorCode code_;
  std::optional<std::uint64_t> id_;
  std::string tenant_;
};

/// A validated request frame. For submits, exactly one of `workload` /
/// `generator` is set for static/online jobs; stream jobs instead carry
/// materialised `arrivals` (streams merge several workloads, so deferring
/// generation buys nothing — the merge itself runs on the engine worker).
struct ParsedRequest {
  Verb verb = Verb::kPing;
  std::optional<std::uint64_t> id;
  std::string tenant = "default";

  svc::BatchJob job = svc::BatchJob::kStatic;
  std::uint64_t seed = 0;
  std::optional<sim::Workload> workload;   ///< inline (workload text format)
  std::optional<GeneratorSpec> generator;
  std::vector<std::string> schedulers;             ///< static
  std::vector<core::ProcFailure> failures;         ///< online
  std::vector<core::StreamArrival> arrivals;       ///< stream
  core::StreamOptions stream_options;              ///< stream
};

/// Parses + validates one request frame. Throws ProtocolError
/// (kMalformedRequest for JSON/schema violations, kOverLimits for limit
/// violations) with id/tenant context attached whenever they were readable.
ParsedRequest parse_request(std::string_view frame, const Limits& limits);

// -- Response rendering (each returns the full frame incl. trailing '\n') --

/// {"ok":false,"code":C,"error":"Name","message":"...","id":I,"tenant":"T"}
/// `id` omitted when nullopt; `tenant` omitted when empty.
std::string render_error(ErrorCode code, std::string_view message,
                         std::optional<std::uint64_t> id,
                         std::string_view tenant);

/// {"ok":true,"op":"ping"}
std::string render_pong();

/// {"ok":true,"op":"drain","draining":true}
std::string render_drain_ack();

/// Counters for the stats verb and the drain-invariant checks in tests.
struct StatsSnapshot {
  std::uint64_t accepted = 0;   ///< requests admitted to a tenant queue
  std::uint64_t rejected = 0;   ///< error responses sent (any code)
  std::uint64_t completed = 0;  ///< submit responses sent
  std::uint64_t active_sessions = 0;
  std::uint64_t queued = 0;     ///< requests currently in tenant queues
  std::uint64_t engine_submitted = 0;
  std::uint64_t engine_completed = 0;
  std::uint64_t engine_cancelled = 0;
  bool draining = false;
};

/// {"ok":true,"op":"stats","accepted":..,...} — fixed key order.
std::string render_stats(const StatsSnapshot& s);

/// One entry of a static submit response's `results` array (no newline):
/// {"scheduler":"S","ok":true,"makespan":M} or
/// {"scheduler":"S","ok":false,"error":"..."}
std::string render_static_entry(std::string_view scheduler, bool ok,
                                double makespan, std::string_view error);

/// {"ok":true,"id":I,"tenant":"T","kind":"static","seed":S,"results":[E,..]}
/// `entries` are pre-rendered render_static_entry values.
std::string render_static_response(std::optional<std::uint64_t> id,
                                   std::string_view tenant, std::uint64_t seed,
                                   const std::vector<std::string>& entries);

/// {"ok":true,...,"kind":"online","seed":S,"completed":B,"makespan":M,
///  "executions":N,"lost_executions":N}
std::string render_online_response(std::optional<std::uint64_t> id,
                                   std::string_view tenant, std::uint64_t seed,
                                   const core::OnlineResult& result);

/// {"ok":true,...,"kind":"stream","seed":S,"makespan":M,"executions":N,
///  "finish":[..],"flow_time":[..]}
std::string render_stream_response(std::optional<std::uint64_t> id,
                                   std::string_view tenant, std::uint64_t seed,
                                   const core::StreamResult& result);

/// True when the first request line is the Prometheus escape hatch
/// ("GET /metrics", optionally followed by " HTTP/1.x").
bool is_metrics_request(std::string_view frame);

/// Wraps an already-rendered Prometheus exposition `body` in a minimal
/// HTTP/1.0 200 response (Content-Type: text/plain; version=0.0.4;
/// Connection: close).
std::string render_metrics_http(std::string_view body);

}  // namespace hdlts::net
