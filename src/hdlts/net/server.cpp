#include "hdlts/net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <sstream>
#include <utility>

#include "hdlts/net/frame.hpp"
#include "hdlts/obs/prometheus.hpp"
#include "hdlts/util/error.hpp"

namespace hdlts::net {

namespace {

// Same shape as the engine's request-latency buckets, but wider: service
// latency includes queueing, so the tail stretches under load.
constexpr std::array<double, 13> kServeLatencyBoundsMs = {
    0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 5000};

double elapsed_ms(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

/// One connected client. Owned by sessions_; only the event loop creates or
/// destroys Sessions, so a destroyed session's responses are counted as
/// orphaned rather than racing the callback threads.
struct Server::Session {
  std::uint64_t id = 0;
  Fd fd;
  LineFramer framer;
  std::string outbox;
  std::size_t out_offset = 0;  ///< bytes of outbox already sent
  bool closing = false;        ///< flush outbox, then close (metrics, fatal)
  std::size_t inflight = 0;    ///< admitted submits awaiting a response
  std::chrono::steady_clock::time_point last_read;
  std::chrono::steady_clock::time_point last_write;

  Session(std::uint64_t session_id, Fd socket, std::size_t max_frame)
      : id(session_id), fd(std::move(socket)), framer(max_frame) {}
};

/// One admitted submit: owns everything the engine request points at until
/// the final callback renders the response.
struct Server::Pending {
  std::uint64_t ticket = 0;
  std::uint64_t session = 0;
  std::optional<std::uint64_t> id;
  std::string tenant;
  svc::BatchJob job = svc::BatchJob::kStatic;
  std::uint64_t seed = 0;
  svc::WorkloadFn workload_fn;
  std::vector<std::string> schedulers;
  std::vector<core::ProcFailure> failures;
  std::vector<core::StreamArrival> arrivals;
  core::StreamOptions stream_options;
  std::vector<std::string> entries;  ///< static results, in scheduler order
  std::chrono::steady_clock::time_point admitted;
};

ServerOptions server_options_from_config(util::Config& config) {
  ServerOptions options;
  options.port = static_cast<std::uint16_t>(config.get_int("port", 0));
  options.engine_threads =
      static_cast<std::size_t>(config.get_int("threads", 0));
  options.engine_queue_capacity =
      static_cast<std::size_t>(config.get_int("queue_cap", 256));
  options.fair.per_tenant_capacity =
      static_cast<std::size_t>(config.get_int("tenant_queue_cap", 64));
  options.fair.quantum =
      static_cast<std::uint64_t>(config.get_int("quantum", 1));
  options.fair.default_weight =
      static_cast<std::uint64_t>(config.get_int("default_weight", 1));
  options.fair.max_tenants =
      static_cast<std::size_t>(config.get_int("max_tenants", 1024));
  for (const auto& pair : config.get_list("tenant_weights", "")) {
    const auto colon = pair.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= pair.size()) {
      throw InvalidArgument("tenant_weights expects name:weight pairs, got '" +
                            pair + "'");
    }
    std::uint64_t weight = 0;
    try {
      weight = std::stoull(pair.substr(colon + 1));
    } catch (const std::exception&) {
      throw InvalidArgument("bad tenant weight in '" + pair + "'");
    }
    options.fair.weights.emplace_back(pair.substr(0, colon), weight);
  }
  options.max_sessions =
      static_cast<std::size_t>(config.get_int("max_sessions", 64));
  options.read_timeout =
      std::chrono::milliseconds(config.get_int("read_timeout_ms", 30000));
  options.write_timeout =
      std::chrono::milliseconds(config.get_int("write_timeout_ms", 30000));
  options.limits.max_frame_bytes =
      static_cast<std::size_t>(config.get_int("max_frame_kb", 1024)) * 1024;
  options.limits.max_tasks =
      static_cast<std::size_t>(config.get_int("max_tasks", 20000));
  options.limits.max_procs =
      static_cast<std::size_t>(config.get_int("max_procs", 256));
  options.limits.max_schedulers =
      static_cast<std::size_t>(config.get_int("max_schedulers", 16));
  options.limits.max_failures =
      static_cast<std::size_t>(config.get_int("max_failures", 64));
  options.limits.max_arrivals =
      static_cast<std::size_t>(config.get_int("max_arrivals", 64));
  return options;
}

Server::Server(const sched::Registry& registry, ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      queue_(options_.fair) {
  listener_ = listen_tcp(options_.port, &port_);
  set_nonblocking(listener_.get());

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw Error(errno_message("pipe"));
  wake_r_ = Fd(pipe_fds[0]);
  wake_w_ = Fd(pipe_fds[1]);
  set_nonblocking(wake_r_.get());
  set_nonblocking(wake_w_.get());
  wake_fd_.store(wake_w_.get(), std::memory_order_release);

  auto& reg = obs::MetricRegistry::global();
  m_connections_ = &reg.counter("svc.serve.connections");
  m_accepted_ = &reg.counter("svc.serve.accepted");
  m_rejected_ = &reg.counter("svc.serve.rejected");
  m_completed_ = &reg.counter("svc.serve.completed");
  m_orphaned_ = &reg.counter("svc.serve.orphaned");
  m_queue_full_ = &reg.counter("svc.serve.queue_full");
  m_active_ = &reg.gauge("svc.serve.active_connections");
  m_queue_depth_ = &reg.gauge("svc.serve.queue_depth");
  m_latency_ = &reg.histogram("svc.serve.latency_ms", kServeLatencyBoundsMs);

  svc::BatchEngineOptions engine_options;
  engine_options.threads = options_.engine_threads;
  engine_options.queue_capacity = options_.engine_queue_capacity;
  engine_ = std::make_unique<svc::BatchEngine>(
      registry_,
      [this](const svc::BatchResult& result) { on_engine_result(result); },
      engine_options);
}

Server::~Server() {
  if (started_) {
    request_drain();
    wait();
  }
  // Engine destruction drains its (already empty) queue.
}

void Server::start() {
  if (started_) throw Error("Server::start called twice");
  started_ = true;
  loop_thread_ = std::thread([this] { loop(); });
}

void Server::request_drain() {
  drain_flag_.store(true, std::memory_order_release);
  wake();
}

void Server::notify_drain_async() noexcept {
  drain_flag_.store(true, std::memory_order_release);
  const int fd = wake_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a wakeup; the result is irrelevant.
    [[maybe_unused]] const auto n = ::write(fd, &byte, 1);
  }
}

void Server::wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Server::drain() {
  request_drain();
  wait();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.orphaned = orphaned_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.active_sessions = sessions_.size();
  s.queued = queue_.size();
  s.draining = draining_;
  return s;
}

svc::BatchEngineStats Server::engine_stats() const { return engine_->stats(); }

void Server::wake() noexcept {
  const int fd = wake_fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(fd, &byte, 1);
  }
}

StatsSnapshot Server::snapshot_locked() const {
  StatsSnapshot s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.active_sessions = sessions_.size();
  s.queued = queue_.size();
  const auto engine = engine_->stats();
  s.engine_submitted = engine.submitted;
  s.engine_completed = engine.completed;
  s.engine_cancelled = engine.cancelled;
  s.draining = draining_;
  return s;
}

void Server::set_tenant_depth_locked(const std::string& tenant) {
  auto it = tenant_depth_.find(tenant);
  if (it == tenant_depth_.end()) {
    // Lazy per-tenant gauge; bounded by fair.max_tenants. The registry has
    // its own mutex and never takes ours, so the nesting cannot cycle.
    it = tenant_depth_
             .emplace(tenant, &obs::MetricRegistry::global().gauge(
                                  "svc.serve.tenant_queue_depth." + tenant))
             .first;
  }
  it->second->set(static_cast<double>(queue_.depth(tenant)));
  m_queue_depth_->set(static_cast<double>(queue_.size()));
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void Server::loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_sessions;  // parallel to fds, 0 = not a session
  for (;;) {
    fds.clear();
    fd_sessions.clear();
    bool listening = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (drain_flag_.load(std::memory_order_acquire)) begin_drain_locked();

      // Exit once nothing is queued or handed out and every response that
      // still has a session is flushed (sessions that cannot flush are
      // closed by the write timeout below, so this converges).
      if (draining_ && queue_.empty() && inflight_.empty() &&
          std::all_of(sessions_.begin(), sessions_.end(),
                      [](const auto& entry) {
                        return entry.second->out_offset ==
                               entry.second->outbox.size();
                      })) {
        sessions_.clear();
        m_active_->set(0.0);
        break;
      }

      fds.push_back({wake_r_.get(), POLLIN, 0});
      fd_sessions.push_back(0);
      if (!draining_ && listener_.valid() &&
          sessions_.size() < options_.max_sessions) {
        fds.push_back({listener_.get(), POLLIN, 0});
        fd_sessions.push_back(0);
        listening = true;
      }
      for (const auto& [id, session] : sessions_) {
        short events = POLLIN;
        if (session->out_offset < session->outbox.size()) events |= POLLOUT;
        fds.push_back({session->fd.get(), events, 0});
        fd_sessions.push_back(id);
      }
    }

    // 100ms tick so timeouts and drain progress are checked even when idle.
    ::poll(fds.data(), fds.size(), 100);

    std::lock_guard<std::mutex> lock(mu_);
    if ((fds[0].revents & POLLIN) != 0) {
      std::array<char, 256> sink;
      while (::read(wake_r_.get(), sink.data(), sink.size()) > 0) {
      }
    }
    if (listening && (fds[1].revents & POLLIN) != 0) accept_sessions_locked();

    for (std::size_t i = listening ? 2 : 1; i < fds.size(); ++i) {
      const std::uint64_t id = fd_sessions[i];
      if (id == 0) continue;
      const auto it = sessions_.find(id);
      if (it == sessions_.end()) continue;  // closed earlier this pass
      Session& session = *it->second;
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        m_active_->set(static_cast<double>(sessions_.size() - 1));
        sessions_.erase(it);
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) write_session_locked(session);
      if (sessions_.find(id) == sessions_.end()) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        read_session_locked(session);
      }
    }

    enforce_timeouts_locked(std::chrono::steady_clock::now());
  }
  // Nothing is handed out, so no callback can still need mu_. Joining the
  // idle engine's workers makes engine_stats() final once wait() returns.
  engine_->shutdown(svc::BatchEngine::Drain::kDrain);
}

void Server::accept_sessions_locked() {
  for (;;) {
    if (sessions_.size() >= options_.max_sessions) return;
    Fd fd = accept_tcp(listener_.get());
    if (!fd.valid()) return;  // EAGAIN or transient error: next poll round
    const std::uint64_t id = next_session_++;
    auto session = std::make_unique<Session>(id, std::move(fd),
                                             options_.limits.max_frame_bytes);
    const auto now = std::chrono::steady_clock::now();
    session->last_read = now;
    session->last_write = now;
    sessions_.emplace(id, std::move(session));
    connections_.fetch_add(1, std::memory_order_relaxed);
    m_connections_->add();
    m_active_->set(static_cast<double>(sessions_.size()));
  }
}

void Server::write_session_locked(Session& session) {
  while (session.out_offset < session.outbox.size()) {
    const auto n = ::send(session.fd.get(),
                          session.outbox.data() + session.out_offset,
                          session.outbox.size() - session.out_offset,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      m_active_->set(static_cast<double>(sessions_.size() - 1));
      sessions_.erase(session.id);
      return;
    }
    session.out_offset += static_cast<std::size_t>(n);
    session.last_write = std::chrono::steady_clock::now();
  }
  session.outbox.clear();
  session.out_offset = 0;
  if (session.closing) {
    m_active_->set(static_cast<double>(sessions_.size() - 1));
    sessions_.erase(session.id);
  }
}

void Server::read_session_locked(Session& session) {
  std::array<char, 65536> buffer;
  bool eof = false;
  for (;;) {
    const long n = recv_some(session.fd.get(), buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      m_active_->set(static_cast<double>(sessions_.size() - 1));
      sessions_.erase(session.id);
      return;
    }
    if (n == 0) {
      // Peer closed. Complete frames already buffered are still processed
      // below (a frame and the FIN often land in one read batch), but the
      // session is dropped afterwards: the peer cannot receive responses,
      // so its pending work is counted orphaned when it completes.
      eof = true;
      break;
    }
    session.last_read = std::chrono::steady_clock::now();
    session.framer.feed(std::string_view(buffer.data(),
                                         static_cast<std::size_t>(n)));
    if (static_cast<std::size_t>(n) < buffer.size()) break;
  }

  // handle_frame_locked (and the write flush it triggers) can erase the
  // session, so re-find it from the id every iteration instead of holding a
  // reference across the call.
  const std::uint64_t sid = session.id;
  std::string frame;
  for (;;) {
    const auto it = sessions_.find(sid);
    if (it == sessions_.end()) return;
    Session& live = *it->second;
    if (live.closing) break;  // metrics responses take over the stream
    const auto next = live.framer.next(frame);
    if (next == LineFramer::Next::kNeedMore) break;
    if (next == LineFramer::Next::kOverflow) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      m_rejected_->add();
      live.outbox += render_error(ErrorCode::kOverLimits,
                                  "frame exceeds max_frame_bytes",
                                  std::nullopt, {});
      live.closing = true;
      write_session_locked(live);
      break;
    }
    handle_frame_locked(live, frame);
  }
  if (eof) {
    const auto it = sessions_.find(sid);
    if (it != sessions_.end()) {
      m_active_->set(static_cast<double>(sessions_.size() - 1));
      sessions_.erase(it);
    }
  }
}

void Server::handle_frame_locked(Session& session, const std::string& frame) {
  if (frame.empty()) return;  // blank lines are keep-alive noise
  if (is_metrics_request(frame)) {
    std::ostringstream body;
    obs::prometheus_render(obs::MetricRegistry::global(), body);
    session.outbox += render_metrics_http(body.str());
    session.closing = true;
    write_session_locked(session);
    return;
  }
  try {
    ParsedRequest request = parse_request(frame, options_.limits);
    switch (request.verb) {
      case Verb::kPing:
        session.outbox += render_pong();
        break;
      case Verb::kStats:
        session.outbox += render_stats(snapshot_locked());
        break;
      case Verb::kDrain:
        session.outbox += render_drain_ack();
        begin_drain_locked();
        break;
      case Verb::kSubmit:
        handle_submit_locked(session, std::move(request));
        break;
    }
  } catch (const ProtocolError& e) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_->add();
    session.outbox += render_error(e.code(), e.what(), e.id(), e.tenant());
  } catch (const std::exception& e) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_->add();
    session.outbox +=
        render_error(ErrorCode::kInternal, e.what(), std::nullopt, {});
  }
  write_session_locked(session);
}

void Server::handle_submit_locked(Session& session, ParsedRequest&& request) {
  if (draining_) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_->add();
    m_queue_full_->add();
    session.outbox += render_error(ErrorCode::kQueueFull, "server is draining",
                                   request.id, request.tenant);
    return;
  }
  auto pending = std::make_unique<Pending>();
  pending->session = session.id;
  pending->id = request.id;
  pending->tenant = request.tenant;
  pending->job = request.job;
  pending->seed = request.seed;
  pending->schedulers = std::move(request.schedulers);
  pending->failures = std::move(request.failures);
  pending->arrivals = std::move(request.arrivals);
  pending->stream_options = request.stream_options;
  pending->admitted = std::chrono::steady_clock::now();
  if (request.workload.has_value()) {
    // Inline workload: the generator closure returns a copy, so the engine
    // worker still owns its own instance (CSR freezing mutates nothing, but
    // the recycled worker workload slot wants a value).
    pending->workload_fn = [workload = std::move(*request.workload)](
                               std::uint64_t) { return workload; };
  } else if (request.generator.has_value()) {
    // Deferred generation: building the DAG and freezing the CSR both run on
    // the engine worker, keeping the event loop parse-only.
    pending->workload_fn = [spec = std::move(*request.generator)](
                               std::uint64_t seed) {
      return make_workload(spec, seed);
    };
  }

  const std::string tenant = pending->tenant;
  const auto result = queue_.push(tenant, std::move(pending));
  switch (result) {
    case FairQueue<std::unique_ptr<Pending>>::Push::kOk:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      m_accepted_->add();
      session.inflight += 1;
      set_tenant_depth_locked(tenant);
      pump_locked();
      break;
    case FairQueue<std::unique_ptr<Pending>>::Push::kTenantFull:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      m_rejected_->add();
      m_queue_full_->add();
      session.outbox += render_error(ErrorCode::kQueueFull,
                                     "tenant queue full", request.id, tenant);
      break;
    case FairQueue<std::unique_ptr<Pending>>::Push::kTooManyTenants:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      m_rejected_->add();
      m_queue_full_->add();
      session.outbox += render_error(ErrorCode::kQueueFull, "too many tenants",
                                     request.id, tenant);
      break;
  }
}

void Server::begin_drain_locked() {
  if (draining_) return;
  draining_ = true;
  listener_.reset();
}

void Server::enforce_timeouts_locked(
    std::chrono::steady_clock::time_point now) {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& session = *it->second;
    bool close = false;
    const bool has_output = session.out_offset < session.outbox.size();
    if (options_.write_timeout.count() > 0 && has_output &&
        now - session.last_write > options_.write_timeout) {
      close = true;  // stalled reader
    }
    if (options_.read_timeout.count() > 0 && !has_output &&
        session.inflight == 0 && !session.closing &&
        now - session.last_read > options_.read_timeout) {
      close = true;  // idle
    }
    if (close) {
      it = sessions_.erase(it);
      m_active_->set(static_cast<double>(sessions_.size()));
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Handoff to the engine
// ---------------------------------------------------------------------------

void Server::pump_locked() {
  // At most one request per worker is out, so requests wait in their tenant
  // queue, where DRR orders them, and the engine ring (capacity >= limit)
  // always has room.
  const std::size_t limit =
      std::min(engine_->threads(), engine_->queue_capacity());
  while (!queue_.empty() && inflight_.size() < limit) {
    std::unique_ptr<Pending> pending;
    std::string tenant;
    queue_.pop(&tenant, &pending);
    set_tenant_depth_locked(tenant);
    Pending* raw = pending.get();
    raw->ticket = next_ticket_++;
    inflight_.emplace(raw->ticket, std::move(pending));
    svc::BatchRequest request;
    request.id = raw->ticket;
    request.seed = raw->seed;
    request.job = raw->job;
    if (raw->job == svc::BatchJob::kStream) {
      request.arrivals = &raw->arrivals;
      request.stream_options = raw->stream_options;
    } else {
      request.generator = &raw->workload_fn;
      request.schedulers = raw->schedulers;
      request.failures = raw->failures;
    }
    if (!engine_->try_submit(request)) {
      // Only a closed engine refuses; answer rather than hang the client.
      completed_.fetch_add(1, std::memory_order_relaxed);
      m_completed_->add();
      deliver_locked(raw->session,
                     render_error(ErrorCode::kInternal,
                                  "engine rejected request", raw->id,
                                  raw->tenant));
      inflight_.erase(request.id);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine result callback (runs on engine workers)
// ---------------------------------------------------------------------------

void Server::on_engine_result(const svc::BatchResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = inflight_.find(result.id);
  if (it == inflight_.end()) return;  // unreachable: tickets are unique
  Pending& pending = *it->second;
  std::string frame;
  if (pending.job == svc::BatchJob::kStatic) {
    pending.entries.push_back(render_static_entry(
        result.scheduler, result.ok, result.makespan, result.error));
    if (pending.entries.size() < pending.schedulers.size()) return;
    frame = render_static_response(pending.id, pending.tenant, pending.seed,
                                   pending.entries);
  } else if (pending.job == svc::BatchJob::kOnline) {
    frame = result.ok
                ? render_online_response(pending.id, pending.tenant,
                                         pending.seed, *result.online)
                : render_error(ErrorCode::kInternal, result.error, pending.id,
                               pending.tenant);
  } else {
    frame = result.ok
                ? render_stream_response(pending.id, pending.tenant,
                                         pending.seed, *result.stream)
                : render_error(ErrorCode::kInternal, result.error, pending.id,
                               pending.tenant);
  }
  m_latency_->observe(
      elapsed_ms(pending.admitted, std::chrono::steady_clock::now()));
  completed_.fetch_add(1, std::memory_order_relaxed);
  m_completed_->add();
  const std::uint64_t session_id = pending.session;
  inflight_.erase(it);
  deliver_locked(session_id, frame);
  pump_locked();
  wake();
}

void Server::deliver_locked(std::uint64_t session_id,
                            const std::string& frame) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    orphaned_.fetch_add(1, std::memory_order_relaxed);
    m_orphaned_->add();
    return;
  }
  it->second->outbox += frame;
  if (it->second->inflight > 0) it->second->inflight -= 1;
}

}  // namespace hdlts::net
