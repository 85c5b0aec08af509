// The three workloads and their seeded request lists. A list depends only
// on (workload, seed, length): every run with one seed sends the same
// frames in the same order, which is what keeps slr_mean bit-identical and
// the measured work equal between runs.
#include <algorithm>
#include <array>
#include <cmath>

#include "bench.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/util/rng.hpp"

namespace servebench {

namespace {

// Throughput constants size the timed list (requests per --seconds). On a
// 4-vCPU x86 host a timed phase lasts about 0.8, 1.2 and 1.0 times
// --seconds: the host's speed drifts over tens of seconds, and the two
// CPU-bound workloads get the longer windows to average it out. The
// warm-up subsets touch every request kind and scheduler of the workload,
// so the engine worker's recycled state is warm before timing.
constexpr std::array<WorkloadDef, 3> kWorkloads = {{
    {"serve-small", 4, 400, 8000, 5000},
    {"serve-large", 2, 12, 135, 300},
    {"serve-dynamic", 2, 24, 400, 1000},
}};

// Seed streams of the warm-up and timed parts of a list.
constexpr std::uint64_t kWarmupStream = 0x5e4e;
constexpr std::uint64_t kTimedStream = 0x5e4f;

std::size_t pick(util::Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// Hands out workflow seeds: a per-list base in the high bits and a running
/// counter in the low 24, so no two workflows of a list share a seed and
/// every seed is an exact JSON integer (< 2^53).
class SeedSource {
 public:
  SeedSource(std::uint64_t seed, std::uint64_t stream)
      : base_((util::derive_seed(seed, stream) & ((1ULL << 29) - 1)) << 24) {}
  std::uint64_t next() { return base_ | counter_++; }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

std::string generator_json(const net::GeneratorSpec& spec) {
  std::string out = "{\"kind\":\"" + spec.kind + "\"";
  if (spec.kind == "random") {
    out += ",\"tasks\":" + std::to_string(spec.tasks);
  } else if (spec.kind == "fft") {
    out += ",\"points\":" + std::to_string(spec.points);
  } else if (spec.kind == "montage") {
    out += ",\"nodes\":" + std::to_string(spec.nodes);
  } else if (spec.kind == "gauss") {
    out += ",\"matrix\":" + std::to_string(spec.matrix);
  }
  out += ",\"cpus\":" + std::to_string(spec.cpus) + "}";
  return out;
}

/// Rough task count of a spec (the same estimate net::parse_request uses
/// for its limit check), for placing failures and arrivals in time.
std::size_t approx_tasks(const net::GeneratorSpec& spec) {
  if (spec.kind == "fft") {
    std::size_t m = spec.points, lg = 0;
    while (m > 1) {
      m /= 2;
      ++lg;
    }
    return 2 * spec.points + spec.points * lg;
  }
  if (spec.kind == "montage") return spec.nodes;
  return spec.tasks;
}

/// Work per processor, a stand-in for the makespan that needs no schedule.
double approx_span(const net::GeneratorSpec& spec) {
  return static_cast<double>(approx_tasks(spec)) * spec.wdag /
         static_cast<double>(spec.cpus);
}

std::string submit_prefix(std::size_t id, std::string_view tenant,
                          std::string_view kind, std::uint64_t seed) {
  return "{\"op\":\"submit\",\"id\":" + std::to_string(id) +
         ",\"tenant\":\"" + std::string(tenant) + "\",\"kind\":\"" +
         std::string(kind) + "\",\"seed\":" + std::to_string(seed);
}

std::string static_frame(std::size_t id, std::string_view tenant,
                         const GeneratedWorkflow& wf) {
  return submit_prefix(id, tenant, "static", wf.seed) +
         ",\"generator\":" + generator_json(wf.spec) +
         ",\"schedulers\":[\"hdlts\",\"heft\"]}";
}

/// Draws the parameters of one part of a list. The parameters that set a
/// request's cost (family, task count, processor count, arrivals per
/// stream) are spread evenly over their ranges: discrete ones cycle, task
/// counts follow an additive-recurrence sequence (step 1/phi). Every list
/// therefore holds the same mix of request costs; the seed decides where
/// each sequence starts and everything else (graph structure and costs,
/// failure processors and times, arrival offsets).
class Draws {
 public:
  explicit Draws(std::uint64_t seed)
      : rng_(seed),
        shift_(static_cast<std::size_t>(rng_() % 1000003)),
        phase_(rng_.uniform()) {}

  util::Rng& rng() { return rng_; }

  /// The i-th value of a cycle over [lo, hi].
  std::size_t cycle(std::size_t i, std::size_t lo, std::size_t hi) const {
    return lo + (i + shift_) % (hi - lo + 1);
  }

  /// The i-th value of a sequence spread evenly over [lo, hi].
  std::size_t even(std::size_t i, std::size_t lo, std::size_t hi) const {
    constexpr double kInversePhi = 0.6180339887498949;
    const double x = std::fmod(phase_ + kInversePhi * static_cast<double>(i),
                               1.0);
    return lo + std::min(hi - lo,
                         static_cast<std::size_t>(
                             x * static_cast<double>(hi - lo + 1)));
  }

 private:
  util::Rng rng_;
  std::size_t shift_;
  double phase_;
};

/// serve-small: 10-60 tasks from all five generator families on 2-4
/// processors, four tenants in turn.
Request small_request(std::size_t id, std::size_t n, Draws& draws,
                      SeedSource& seeds) {
  GeneratedWorkflow wf;
  wf.seed = seeds.next();
  net::GeneratorSpec& spec = wf.spec;
  const std::size_t m = n / 5;  // index among this family's requests
  spec.cpus = draws.cycle(m, 2, 4);
  switch (n % 5) {
    case 0:
      spec.kind = "random";
      spec.tasks = draws.even(m, 10, 60);
      break;
    case 1:
      spec.kind = "fft";
      spec.points = draws.even(m, 0, 1) == 0 ? 4 : 8;  // 15 or 39 tasks
      break;
    case 2:
      spec.kind = "montage";
      spec.nodes = draws.even(m, 20, 60);
      break;
    case 3:
      spec.kind = "md";  // 41 tasks
      break;
    default:
      spec.kind = "gauss";
      spec.matrix = draws.even(m, 5, 10);  // 14-54 tasks
      break;
  }
  const std::string tenant = "t" + std::to_string(id % 4);
  return {Kind::kStatic, static_frame(id, tenant, wf), {}};
}

/// serve-large: random DAGs of 1000-2000 tasks on 4-8 processors.
Request large_request(std::size_t id, std::size_t n, Draws& draws,
                      SeedSource& seeds) {
  GeneratedWorkflow wf;
  wf.seed = seeds.next();
  wf.spec.kind = "random";
  wf.spec.tasks = draws.even(n, 1000, 2000);
  wf.spec.cpus = draws.cycle(n, 4, 8);
  return {Kind::kStatic, static_frame(id, "t0", wf), {}};
}

/// serve-dynamic, even positions: random, fft or montage graphs of 200-800
/// tasks on 4-16 processors, with 1-2 processor failures at seeded times
/// inside the expected span.
Request online_request(std::size_t id, std::size_t j, Draws& draws,
                       SeedSource& seeds) {
  GeneratedWorkflow wf;
  wf.seed = seeds.next();
  net::GeneratorSpec& spec = wf.spec;
  const std::size_t m = j / 3;  // index among this family's requests
  spec.cpus = draws.cycle(m, 4, 16);
  switch (j % 3) {
    case 0:
      spec.kind = "random";
      spec.tasks = draws.even(m, 200, 800);
      break;
    case 1:
      spec.kind = "fft";
      spec.points = draws.even(m, 0, 1) == 0 ? 32 : 64;  // ~220 or ~510 tasks
      break;
    default:
      spec.kind = "montage";
      spec.nodes = draws.even(m, 200, 800);
      break;
  }
  util::Rng& rng = draws.rng();
  std::string failures;
  const std::size_t count = 1 + m % 2;
  const std::size_t first = pick(rng, 0, spec.cpus - 1);
  const std::size_t step = 1 + pick(rng, 0, spec.cpus - 2);
  for (std::size_t f = 0; f < count; ++f) {
    // Distinct processors; at least two of the >= 4 always survive.
    const std::size_t proc = (first + f * step) % spec.cpus;
    const double time = approx_span(spec) * rng.uniform(0.1, 0.8);
    if (f > 0) failures += ',';
    failures += "{\"proc\":" + std::to_string(proc) +
                ",\"time\":" + util::json_number(time) + "}";
  }
  std::string frame = submit_prefix(id, "t0", "online", wf.seed) +
                      ",\"generator\":" + generator_json(spec) +
                      ",\"failures\":[" + failures + "]}";
  return {Kind::kOnline, std::move(frame), {}};
}

/// serve-dynamic, odd positions: 4-8 random-DAG arrivals of 50-200 tasks on
/// one shared 4-8 processor platform, at seeded offsets, PV policy.
Request stream_request(std::size_t id, std::size_t j, Draws& draws,
                       SeedSource& seeds) {
  Request request;
  request.kind = Kind::kStream;
  const std::size_t cpus = draws.cycle(j, 4, 8);
  const std::size_t count = draws.cycle(j / 5, 4, 8);
  const std::uint64_t request_seed = seeds.next();
  util::Rng& rng = draws.rng();
  std::string arrivals;
  double at = 0.0;
  for (std::size_t a = 0; a < count; ++a) {
    GeneratedWorkflow wf;
    wf.seed = seeds.next();
    wf.spec.kind = "random";
    wf.spec.tasks = pick(rng, 50, 200);
    wf.spec.cpus = cpus;
    if (a > 0) arrivals += ',';
    arrivals += "{\"generator\":" + generator_json(wf.spec) +
                ",\"seed\":" + std::to_string(wf.seed) +
                ",\"arrival\":" + util::json_number(at) + "}";
    at += approx_span(wf.spec) * rng.uniform(0.0, 0.5);
    request.arrivals.push_back(std::move(wf));
  }
  request.frame = submit_prefix(id, "t0", "stream", request_seed) +
                  ",\"policy\":\"pv\",\"arrivals\":[" + arrivals + "]}";
  return request;
}

}  // namespace

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::vector<Request> make_requests(const WorkloadDef& def, std::uint64_t seed,
                                   std::size_t timed) {
  std::vector<Request> requests;
  requests.reserve(def.warmup + timed);
  // The warm-up subset is the same for every seed, so set-up time does not
  // vary with the seed; the timed requests come from --seed.
  const auto append = [&](std::uint64_t list_seed, std::uint64_t stream,
                          std::size_t count) {
    Draws draws(util::derive_seed(list_seed, stream, 1));
    SeedSource seeds(list_seed, stream);
    for (std::size_t n = 0; n < count; ++n) {
      const std::size_t id = requests.size();
      if (def.name == "serve-small") {
        requests.push_back(small_request(id, n, draws, seeds));
      } else if (def.name == "serve-large") {
        requests.push_back(large_request(id, n, draws, seeds));
      } else if (n % 2 == 0) {
        requests.push_back(online_request(id, n / 2, draws, seeds));
      } else {
        requests.push_back(stream_request(id, n / 2, draws, seeds));
      }
    }
  };
  append(0, kWarmupStream, def.warmup);
  append(seed, kTimedStream, timed);
  return requests;
}

}  // namespace servebench
