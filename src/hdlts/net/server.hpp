// The serve daemon (docs/SERVICE.md): a loopback TCP server that accepts
// newline-delimited JSON scheduling requests, admits them through per-tenant
// weighted-fair queues (net/fair_queue.hpp), executes them on a
// svc::BatchEngine, and streams byte-exact responses back per session.
//
// Threading (one thread plus the engine's workers):
//   * the event loop: poll() over the listener, a self-pipe, and every
//     session socket (all non-blocking). It accepts, frames, parses, admits
//     (FairQueue push or an immediate error response), flushes outboxes, and
//     enforces read/write timeouts. It is the only thread that creates or
//     destroys sessions.
//   * engine workers call the result callback, which renders the response
//     (protocol.hpp), appends it to the owning session's outbox under the
//     server mutex, and wakes the event loop via the self-pipe.
//
// Handoff: the tenant queues are the only place a request waits. The server
// hands a request to the engine only while fewer than min(engine workers,
// engine queue capacity) are out, from the two places that already hold
// the server mutex: admission and delivery of a request's last result. DRR
// therefore orders every request beyond the ones running, and a slow engine
// surfaces to clients as per-tenant QueueFull. Lock order is server mutex
// -> engine mutex; the engine never runs a callback under its own lock.
//
// Graceful drain (request_drain(), the drain verb, or SIGTERM via
// notify_drain_async): the listener closes, new submits are rejected with
// QueueFull("server is draining"), the queued backlog keeps flowing to the
// engine, and once nothing is queued or handed out and every outbox is
// flushed the loop shuts the idle engine down and wait() returns. Every
// admitted request gets exactly one rendered response — stats().accepted ==
// completed after drain, with orphaned counting the subset whose session
// had already disconnected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hdlts/net/fair_queue.hpp"
#include "hdlts/net/protocol.hpp"
#include "hdlts/net/socket.hpp"
#include "hdlts/obs/metrics.hpp"
#include "hdlts/sched/registry.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/config.hpp"

namespace hdlts::net {

struct ServerOptions {
  /// Loopback port to listen on; 0 = kernel-assigned (read it back with
  /// port(), which is valid right after construction).
  std::uint16_t port = 0;
  /// BatchEngine workers (0 = hardware concurrency) and ring capacity. The
  /// server hands out at most min(engine_threads, capacity) requests at a
  /// time, so the capacity only matters when set below engine_threads.
  std::size_t engine_threads = 0;
  std::size_t engine_queue_capacity = 256;
  Limits limits;
  FairQueueOptions fair;
  std::size_t max_sessions = 64;
  /// Close a session with no traffic, no queued work, and nothing to write
  /// for this long (0 = never).
  std::chrono::milliseconds read_timeout{30000};
  /// Close a session whose outbox made no progress for this long (0 =
  /// never) — a stalled reader must not pin response buffers forever.
  std::chrono::milliseconds write_timeout{30000};
};

/// Parses the serve config dialect (see docs/SERVICE.md):
///   port, threads, queue_cap, tenant_queue_cap, quantum, default_weight,
///   tenant_weights (name:weight pairs joined by '+', e.g. "alice:4+bob:1"),
///   max_tenants, max_sessions, read_timeout_ms, write_timeout_ms,
///   max_frame_kb, max_tasks, max_procs, max_schedulers, max_failures,
///   max_arrivals
/// Keys the caller doesn't recognise remain in `config` (unused_keys()).
ServerOptions server_options_from_config(util::Config& config);

/// Monotone service totals; after a drain, accepted == completed and
/// queued == 0 (orphaned counts the completed responses whose session had
/// already disconnected).
struct ServerStats {
  std::uint64_t connections = 0;  ///< sessions ever accepted
  std::uint64_t active_sessions = 0;
  std::uint64_t accepted = 0;   ///< submits admitted to a tenant queue
  std::uint64_t rejected = 0;   ///< error responses sent before admission
  std::uint64_t completed = 0;  ///< submit responses rendered (incl. Internal)
  std::uint64_t orphaned = 0;   ///< responses whose session was gone
  std::uint64_t queued = 0;     ///< currently waiting in tenant queues
  bool draining = false;
};

class Server {
 public:
  /// Binds and listens immediately (throws hdlts::Error on failure) but
  /// serves nothing until start(). `registry` must outlive the server and
  /// its factories must be callable concurrently.
  Server(const sched::Registry& registry, ServerOptions options = {});
  /// Drains (if still running) and joins.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return port_; }

  /// Spawns the event loop. start() twice is an error.
  void start();

  /// Begins a graceful drain; non-blocking, idempotent.
  void request_drain();

  /// Async-signal-safe drain trigger (atomic flag + self-pipe write), for
  /// SIGTERM handlers.
  void notify_drain_async() noexcept;

  /// Blocks until the drain completes and the event loop exits.
  void wait();

  /// request_drain() + wait().
  void drain();

  ServerStats stats() const;

  /// Engine totals (for the stats verb and the drain-invariant tests).
  svc::BatchEngineStats engine_stats() const;

 private:
  struct Session;
  struct Pending;

  void loop();
  void wake() noexcept;
  /// Hands requests to the engine in DRR order while fewer than
  /// min(engine workers, engine queue capacity) are out.
  void pump_locked();

  void accept_sessions_locked();
  void read_session_locked(Session& session);
  void write_session_locked(Session& session);
  void handle_frame_locked(Session& session, const std::string& frame);
  void handle_submit_locked(Session& session, ParsedRequest&& request);
  void begin_drain_locked();
  void enforce_timeouts_locked(std::chrono::steady_clock::time_point now);
  void deliver_locked(std::uint64_t session_id, const std::string& frame);
  void set_tenant_depth_locked(const std::string& tenant);
  StatsSnapshot snapshot_locked() const;

  void on_engine_result(const svc::BatchResult& result);

  const sched::Registry& registry_;
  ServerOptions options_;
  std::uint16_t port_ = 0;
  Fd listener_;
  Fd wake_r_;
  Fd wake_w_;
  std::unique_ptr<svc::BatchEngine> engine_;

  std::thread loop_thread_;
  bool started_ = false;

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_ = 1;
  FairQueue<std::unique_ptr<Pending>> queue_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> inflight_;
  std::uint64_t next_ticket_ = 1;
  bool draining_ = false;
  std::atomic<bool> drain_flag_{false};
  std::atomic<int> wake_fd_{-1};  ///< self-pipe write end, for the handler

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> orphaned_{0};

  obs::Counter* m_connections_ = nullptr;
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_orphaned_ = nullptr;
  obs::Counter* m_queue_full_ = nullptr;
  obs::Gauge* m_active_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
  std::map<std::string, obs::Gauge*> tenant_depth_;  // guarded by mu_
};

}  // namespace hdlts::net
