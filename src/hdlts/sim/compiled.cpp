#include "hdlts/sim/compiled.hpp"

#include <algorithm>

#include "hdlts/graph/algorithms.hpp"
#include "hdlts/util/stats.hpp"

namespace hdlts::sim {

CompiledProblem::CompiledProblem(const graph::TaskGraph& g,
                                 const CostTable& costs,
                                 const platform::Platform& platform)
    : num_tasks_(g.num_tasks()), num_procs_(platform.num_procs()) {
  if (g.num_tasks() != costs.num_tasks()) {
    throw InvalidArgument("cost table has " +
                          std::to_string(costs.num_tasks()) +
                          " tasks but graph has " +
                          std::to_string(g.num_tasks()));
  }
  if (platform.num_procs() != costs.num_procs()) {
    throw InvalidArgument("cost table has " +
                          std::to_string(costs.num_procs()) +
                          " processors but platform has " +
                          std::to_string(platform.num_procs()));
  }

  // Throws on cyclic graphs; doubles as the acyclicity validation.
  topo_ = graph::topological_order(g);
  levels_ = graph::precedence_levels(g);
  entries_ = g.entry_tasks();
  exits_ = g.exit_tasks();

  // CSR adjacency: one pass for offsets, one to pack the flat arrays, with
  // the TaskGraph's per-vertex adjacency order preserved verbatim.
  child_off_.resize(num_tasks_ + 1, 0);
  parent_off_.resize(num_tasks_ + 1, 0);
  for (graph::TaskId v = 0; v < num_tasks_; ++v) {
    child_off_[v + 1] = child_off_[v] + g.children(v).size();
    parent_off_[v + 1] = parent_off_[v] + g.parents(v).size();
  }
  child_adj_.reserve(child_off_[num_tasks_]);
  parent_adj_.reserve(parent_off_[num_tasks_]);
  for (graph::TaskId v = 0; v < num_tasks_; ++v) {
    const auto children = g.children(v);
    child_adj_.insert(child_adj_.end(), children.begin(), children.end());
    const auto parents = g.parents(v);
    parent_adj_.insert(parent_adj_.end(), parents.begin(), parents.end());
  }

  // W: verbatim row-major copy; per-task summaries use the same util::stats
  // calls CostTable's accessors do, over the same full rows (dead processors
  // included), so every cached double equals CostTable's recompute bitwise.
  w_.reserve(num_tasks_ * num_procs_);
  mean_cost_.resize(num_tasks_);
  min_cost_.resize(num_tasks_);
  stddev_cost_.resize(num_tasks_);
  free_task_.resize(num_tasks_);
  for (graph::TaskId v = 0; v < num_tasks_; ++v) {
    const auto row = costs.row(v);
    w_.insert(w_.end(), row.begin(), row.end());
    mean_cost_[v] = util::mean(row);
    min_cost_[v] = *std::min_element(row.begin(), row.end());
    stddev_cost_[v] = util::stddev_sample(row);
    free_task_[v] =
        std::all_of(row.begin(), row.end(), [](double c) { return c <= 0.0; })
            ? 1
            : 0;
  }

  // Energy rows mirror the cost rows: dynamic energy is the verbatim
  // W(v, p) * (busy - idle) product, static power the idle draw, both cached
  // so scheduler hot loops never touch the platform's checked accessors.
  static_power_.resize(num_procs_);
  busy_power_.resize(num_procs_);
  for (platform::ProcId p = 0; p < num_procs_; ++p) {
    static_power_[p] = platform.idle_power(p);
    busy_power_[p] = platform.busy_power(p);
  }
  dyn_energy_.resize(num_tasks_ * num_procs_);
  for (graph::TaskId v = 0; v < num_tasks_; ++v) {
    for (platform::ProcId p = 0; p < num_procs_; ++p) {
      const std::size_t at = static_cast<std::size_t>(v) * num_procs_ + p;
      dyn_energy_[at] = w_[at] * (busy_power_[p] - static_power_[p]);
    }
  }

  bw_.assign(num_procs_ * num_procs_, 1.0);  // diagonal unused
  for (platform::ProcId a = 0; a < num_procs_; ++a) {
    for (platform::ProcId b = 0; b < num_procs_; ++b) {
      if (a != b) bw_[static_cast<std::size_t>(a) * num_procs_ + b] =
          platform.bandwidth(a, b);
    }
  }
  mean_bandwidth_ = platform.mean_bandwidth();

  procs_ = platform.alive_procs();
  column_of_.assign(num_procs_, kNoColumn);
  for (std::size_t pi = 0; pi < procs_.size(); ++pi) {
    column_of_[procs_[pi]] = pi;
  }

  total_static_power_ = 0.0;
  for (const platform::ProcId p : procs_) {
    total_static_power_ += static_power_[p];
  }
}

double CompiledProblem::edge_data(graph::TaskId u, graph::TaskId v) const {
  for (const graph::Adjacent& c : children(u)) {
    if (c.task == v) return c.data;
  }
  throw InvalidArgument("no edge " + std::to_string(u) + " -> " +
                        std::to_string(v));
}

}  // namespace hdlts::sim
