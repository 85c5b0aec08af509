// The untraced measured run. One load-generator thread (the caller) drives
// an in-process net::Server with one engine worker over one loopback
// connection: with the server's event loop and dispatcher that is four
// threads. Set-up is repeated and its median reported; the timed phase
// sends the fixed list once; after the server is gone, every response is
// checked byte for byte against a direct library run of the same request.
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "hdlts/core/hdlts.hpp"
#include "hdlts/net/client.hpp"
#include "hdlts/net/server.hpp"
#include "hdlts/util/error.hpp"

namespace servebench {

namespace {

/// Set-up runs this many times per run; the median is reported.
constexpr int kSetupRepeats = 9;
/// The timed phase is measured in this many slices of answers.
constexpr std::size_t kSlices = 20;
constexpr std::chrono::milliseconds kResponseTimeout{30000};

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    out += (out.empty() ? "" : " ") + std::to_string(v);
  }
  return out;
}

bool is_ok_frame(std::string_view frame) {
  return frame.rfind("{\"ok\":true", 0) == 0;
}

void release_free_heap() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
}

/// What one closed loop observed.
struct LoopRecord {
  /// By offset from the loop's first request: the response frame ("" when
  /// unanswered) and its send-to-frame latency (NaN when unanswered).
  std::vector<std::string> responses;
  std::vector<double> latency_ms;
  /// Wall time, process CPU seconds and host ticks at the start and after
  /// each of the loop's `slices` equal shares of answers.
  struct Mark {
    Clock::time_point time;
    double cpu = 0.0;
    HostTicks host;
  };
  std::vector<Mark> marks;
  /// Largest resident set size sampled, at most every 10 ms.
  std::uint64_t rss_peak_kb = 0;
  /// What ended the loop early (timeout, lost connection), or "".
  std::string error;
};

/// The wire id of a response frame; nullopt when it carries none.
std::optional<std::uint64_t> response_id(std::string_view frame) {
  // `,"id":` cannot occur inside an escaped message string (its quote would
  // be preceded by a backslash), so the first match is the id field.
  constexpr std::string_view kKey = ",\"id\":";
  const std::size_t at = frame.find(kKey);
  if (at == std::string_view::npos) return std::nullopt;
  std::uint64_t id = 0;
  std::size_t i = at + kKey.size();
  if (i >= frame.size() || frame[i] < '0' || frame[i] > '9') {
    return std::nullopt;
  }
  for (; i < frame.size() && frame[i] >= '0' && frame[i] <= '9'; ++i) {
    id = id * 10 + static_cast<std::uint64_t>(frame[i] - '0');
  }
  return id;
}

/// The process's resident set size now, in kB.
std::uint64_t resident_kb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) / 1024;
}

/// Nearest-rank quantile of an ascending-sorted sample.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// Sends requests[begin, end) over `client` in a closed loop that keeps
/// `outstanding` requests in flight.
LoopRecord closed_loop(net::Client& client,
                       const std::vector<Request>& requests,
                       std::size_t begin, std::size_t end,
                       std::size_t outstanding, std::size_t slices = 1) {
  constexpr auto kRssPeriod = std::chrono::milliseconds(10);
  const std::size_t count = end - begin;
  LoopRecord record;
  record.responses.assign(count, std::string());
  record.latency_ms.assign(count, std::numeric_limits<double>::quiet_NaN());
  std::vector<Clock::time_point> sent_at(count);
  std::size_t next = begin;
  const auto send_next = [&] {
    sent_at[next - begin] = Clock::now();
    client.send_line(requests[next].frame);
    ++next;
  };
  std::size_t slice = 0;
  Clock::time_point rss_sampled;
  record.rss_peak_kb = resident_kb();
  record.marks.push_back({Clock::now(), cpu_seconds(), read_host_ticks()});
  try {
    while (next < end && next - begin < outstanding) send_next();
    for (std::size_t answered = 1; answered <= count; ++answered) {
      std::string frame = client.recv_line();
      const auto now = Clock::now();
      const auto id = response_id(frame);
      if (id.has_value() && *id >= begin && *id < end) {
        const std::size_t k = static_cast<std::size_t>(*id - begin);
        record.latency_ms[k] =
            std::chrono::duration<double, std::milli>(now - sent_at[k])
                .count();
        record.responses[k] = std::move(frame);
      }
      if (next < end) send_next();
      while (slice < slices && answered == count * (slice + 1) / slices) {
        record.marks.push_back({now, cpu_seconds(), read_host_ticks()});
        ++slice;
      }
      if (now - rss_sampled >= kRssPeriod) {
        record.rss_peak_kb = std::max(record.rss_peak_kb, resident_kb());
        rss_sampled = now;
      }
    }
  } catch (const hdlts::Error& e) {
    record.error = e.what();
  }
  record.rss_peak_kb = std::max(record.rss_peak_kb, resident_kb());
  return record;
}

/// Runs the direct path for every timed request and compares its rendering
/// with the served response. The server is gone by now, so the check may
/// use up to nproc threads (at most four): the caller and helpers pull
/// request indices from a shared counter.
void check_responses(const sched::Registry& registry,
                     const std::vector<Request>& requests, std::size_t warmup,
                     const std::vector<std::string>& responses,
                     std::vector<double>& slr, std::vector<char>& matched) {
  const std::size_t timed = responses.size();
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const auto work = [&] {
    try {
      DirectRunner direct(registry);
      DirectOutcome outcome;
      for (std::size_t k = next++; k < timed; k = next++) {
        direct.run(requests[warmup + k],
                   static_cast<std::uint32_t>(warmup + k), nullptr, true,
                   outcome);
        slr[k] = outcome.slr;
        matched[k] = responses[k] == outcome.response ? 1 : 0;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      next = timed;
    }
  };
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const long threads = std::clamp<long>(nproc, 1, 4);
  {
    std::vector<std::jthread> helpers;
    for (long t = 1; t < threads; ++t) helpers.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}


HostTicks read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostTicks ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user).
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::uint64_t proc_status_value(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      return std::stoull(line.substr(key.size() + 1));
    }
  }
  return 0;
}




RunResult run_measured(const WorkloadDef& def,
                       const std::vector<Request>& requests) {
  const sched::Registry registry = core::default_registry();
  const std::size_t warmup = def.warmup;
  const std::size_t timed = requests.size() - warmup;

  net::ServerOptions options;
  options.engine_threads = 1;
  options.engine_queue_capacity = 64;

  // Set-up: server construction, start, connect and the warm-up pass. The
  // last repetition's server and connection carry the timed phase.
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (server != nullptr) {
      client.reset();
      server->drain();
      server.reset();
      // Hand the torn-down threads' free heap back to the kernel, so the
      // memory of earlier repetitions does not count in the timed phase's
      // resident set.
      release_free_heap();
    }
    const auto t0 = Clock::now();
    server = std::make_unique<net::Server>(registry, options);
    server->start();
    client = std::make_unique<net::Client>(server->port(), kResponseTimeout);
    const LoopRecord warm =
        closed_loop(*client, requests, 0, warmup, def.outstanding);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    for (const std::string& frame : warm.responses) {
      if (!warm.error.empty() || !is_ok_frame(frame)) {
        throw hdlts::Error("warm-up request failed: " +
                    (warm.error.empty() ? frame : warm.error));
      }
    }
  }

  // Timed phase.
  const LoopRecord loop = closed_loop(*client, requests, warmup,
                                      requests.size(), def.outstanding,
                                      kSlices);
  const std::uint64_t threads = proc_status_value("Threads");

  client->close();
  server->drain();
  const net::ServerStats stats = server->stats();
  const svc::BatchEngineStats engine = server->engine_stats();

  // Correctness: byte-compare every response with a direct run. The sum
  // runs in request order, so slr_mean is bit-identical for one seed.
  RunResult result;
  std::vector<double> slr(timed, 0.0);
  std::vector<char> matched(timed, 0);
  check_responses(registry, requests, warmup, loop.responses, slr, matched);
  double slr_sum = 0.0;
  for (const double value : slr) slr_sum += value;
  const auto ok = static_cast<std::size_t>(
      std::count(matched.begin(), matched.end(), 1));
  result.attempted = timed;
  result.failed = timed - ok;
  const bool drained = stats.accepted == stats.completed && stats.queued == 0;
  const bool engine_balanced =
      engine.submitted == engine.completed + engine.cancelled;
  result.correct = result.failed == 0 && drained && engine_balanced &&
                   loop.marks.size() == kSlices + 1;
  if (!result.correct) {
    result.notes.emplace_back("loop_error", loop.error);
  }

  // The timed answers fall into kSlices slices. Only the quieter ones count:
  // those whose host steal share is at most the median slice's, so at least
  // half of them, and all of them on a quiet host. Throughput and CPU per
  // request are medians over those slices; latency percentiles pool their
  // requests. A spell of contention then moves the run far less.
  std::vector<double> steal;
  for (std::size_t s = 0; s + 1 < loop.marks.size(); ++s) {
    const HostTicks& h0 = loop.marks[s].host;
    const HostTicks& h1 = loop.marks[s + 1].host;
    steal.push_back(h1.total > h0.total
                        ? (h1.steal - h0.steal) / (h1.total - h0.total)
                        : 0.0);
  }
  const double steal_cut = median(steal);
  std::vector<double> rps, cpu_ms, latency;
  for (std::size_t s = 0; s < steal.size(); ++s) {
    if (steal[s] > steal_cut) continue;
    const std::size_t first = timed * s / kSlices;
    const std::size_t last = timed * (s + 1) / kSlices;
    const double answers = static_cast<double>(last - first);
    const LoopRecord::Mark& m0 = loop.marks[s];
    const LoopRecord::Mark& m1 = loop.marks[s + 1];
    rps.push_back(answers / seconds_between(m0.time, m1.time));
    cpu_ms.push_back((m1.cpu - m0.cpu) * 1e3 / answers);
    for (std::size_t k = first; k < last; ++k) {
      const double ms = loop.latency_ms[k];
      if (!std::isnan(ms)) latency.push_back(ms);
    }
  }
  std::sort(latency.begin(), latency.end());

  result.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"throughput_rps", median(rps), "1/s"},
      {"latency_p50_ms", sorted_quantile(latency, 0.50), "ms"},
      {"latency_p99_ms", sorted_quantile(latency, 0.99), "ms"},
      {"cpu_ms_per_req", median(cpu_ms), "ms"},
      {"rss_peak_mb", static_cast<double>(loop.rss_peak_kb) / 1024.0, "MB"},
      {"ok_ratio",
       static_cast<double>(ok) / static_cast<double>(timed), "ratio"},
      {"slr_mean", slr_sum / static_cast<double>(timed), "ratio"},
  };
  const std::size_t beyond_p99 =
      latency.size() - static_cast<std::size_t>(std::ceil(
                           0.99 * static_cast<double>(latency.size())));
  result.notes.insert(
      result.notes.begin(),
      {
          {"threads", std::to_string(threads)},
          {"engine_workers", std::to_string(options.engine_threads)},
          {"outstanding", std::to_string(def.outstanding)},
          {"warmup_requests", std::to_string(warmup)},
          {"timed_requests", std::to_string(timed)},
          {"timed_wall_s",
           std::to_string(seconds_between(loop.marks.front().time,
                                          loop.marks.back().time))},
          {"quiet_slices", std::to_string(rps.size()) + " of " +
                               std::to_string(steal.size())},
          {"latency_samples", std::to_string(latency.size())},
          {"samples_beyond_p99", std::to_string(beyond_p99)},
          {"setup_samples_s", join(setup_s)},
          {"slice_steal", join(steal)},
          {"quiet_slice_rps", join(rps)},
          {"server_accepted", std::to_string(stats.accepted)},
          {"server_completed", std::to_string(stats.completed)},
          {"server_rejected", std::to_string(stats.rejected)},
          {"engine_submitted", std::to_string(engine.submitted)},
          {"engine_completed", std::to_string(engine.completed)},
          {"engine_cancelled", std::to_string(engine.cancelled)},
      });
  if (!drained || !engine_balanced) {
    result.notes.emplace_back("invariant",
                              "server or engine accounting does not balance");
  }
  return result;
}

}  // namespace servebench
