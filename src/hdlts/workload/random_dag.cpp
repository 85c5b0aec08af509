#include "hdlts/workload/random_dag.hpp"

#include <algorithm>
#include <cmath>

namespace hdlts::workload {

void RandomDagParams::validate() const {
  if (num_tasks < 2) throw InvalidArgument("random DAG needs >= 2 tasks");
  if (alpha <= 0.0) throw InvalidArgument("alpha must be positive");
  if (density == 0) throw InvalidArgument("density must be >= 1");
  costs.validate();
}

graph::TaskGraph random_structure(const RandomDagParams& params,
                                  util::Rng& rng) {
  params.validate();
  const auto v = static_cast<double>(params.num_tasks);
  const double sqrt_v = std::sqrt(v);

  // Height ~ sqrt(V)/alpha levels; per-level widths jitter around
  // alpha*sqrt(V) and are then scaled so they sum to exactly V.
  const std::size_t levels = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(sqrt_v / params.alpha)));
  std::vector<double> raw(levels);
  double total = 0.0;
  for (double& w : raw) {
    w = rng.uniform(0.5, 1.5) * params.alpha * sqrt_v;
    total += w;
  }
  std::vector<std::size_t> width(levels, 1);
  std::size_t assigned = levels;  // one guaranteed task per level
  for (std::size_t l = 0; l < levels && assigned < params.num_tasks; ++l) {
    const auto extra = static_cast<std::size_t>(
        std::floor(raw[l] / total * (v - static_cast<double>(levels))));
    const std::size_t take =
        std::min(extra, params.num_tasks - assigned);
    width[l] += take;
    assigned += take;
  }
  // Distribute any rounding remainder round-robin.
  for (std::size_t l = 0; assigned < params.num_tasks;
       l = (l + 1) % levels) {
    ++width[l];
    ++assigned;
  }

  graph::TaskGraph g;
  // One mandatory parent edge per non-top task plus ~density extras per
  // non-bottom task — a close upper bound on the final edge count.
  g.reserve(params.num_tasks, params.num_tasks * (1 + params.density));
  std::vector<std::vector<graph::TaskId>> level_tasks(levels);
  for (std::size_t l = 0; l < levels; ++l) {
    for (std::size_t i = 0; i < width[l]; ++i) {
      level_tasks[l].push_back(g.add_task());
    }
  }

  // Every non-top task takes one mandatory parent on the previous level (so
  // the level structure is real), plus extra forward edges for density. The
  // top level can hold several tasks — the multi-entry case the paper's
  // pseudo-task normalization exists for; likewise multiple exits arise
  // naturally from tasks that never get chosen as a source.
  for (std::size_t l = 1; l < levels; ++l) {
    for (const graph::TaskId t : level_tasks[l]) {
      const auto& prev = level_tasks[l - 1];
      const graph::TaskId parent = prev[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1))];
      g.add_edge(parent, t, 0.0);
    }
  }
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    for (const graph::TaskId t : level_tasks[l]) {
      // Out-degree ~ U[1, 2*density - 1], mean = density (counting the
      // mandatory child edges this task may already have received).
      const auto want = static_cast<std::size_t>(rng.uniform_int(
          1, 2 * static_cast<std::int64_t>(params.density) - 1));
      std::size_t have = g.out_degree(t);
      for (std::size_t attempt = 0; have < want && attempt < 4 * want;
           ++attempt) {
        // Target a uniformly random task on any deeper level.
        const std::size_t dl = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(l) + 1,
            static_cast<std::int64_t>(levels) - 1));
        const auto& pool = level_tasks[dl];
        const graph::TaskId target = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
        if (!g.has_edge(t, target)) {
          g.add_edge(t, target, 0.0);
          ++have;
        }
      }
    }
  }
  return g;
}

sim::Workload random_workload(const RandomDagParams& params,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  graph::TaskGraph structure = random_structure(params, rng);
  return make_workload(std::move(structure), params.costs, rng);
}

}  // namespace hdlts::workload
