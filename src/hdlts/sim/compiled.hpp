// Frozen, immutable compiled view of a scheduling problem.
//
// graph::TaskGraph / sim::CostTable / platform::Platform are the mutable
// construction API: vector-of-vectors adjacency, bounds-checked accessors,
// liveness that can change between runs. Every scheduler hot loop used to
// read them directly — pointer-chasing per adjacency visit plus an always-on
// contract check per cost lookup. CompiledProblem is built once per
// (TaskGraph, CostTable, Platform) triple (eagerly, by the sim::Problem
// constructor) and flattens everything the hot loops touch:
//
//   - CSR children/parents: offset array + flat {task, data} spans, adjacency
//     order preserved from the TaskGraph (iteration order is part of the
//     bitwise-reproducibility contract);
//   - row-major W matrix (task x all processors, a verbatim copy of the cost
//     table) and a flat P x P bandwidth table;
//   - precomputed per-task mean / min / sample-stddev cost and the free-task
//     flag, computed with the same util::stats calls CostTable uses, so the
//     cached double is bit-identical to what CostTable recomputes;
//   - topological order, precedence levels, entry/exit lists, the alive
//     processor list and its ProcId -> column map.
//
// Accessors are deliberately unchecked (no HDLTS_EXPECTS): all indices were
// validated once at compile time, and removing the per-lookup branch from
// the scheduler inner loops is a large part of what the flat layout buys.
// Anything mutating the underlying workload must build a fresh Problem (and
// hence a fresh CompiledProblem) — the same snapshot semantics Problem
// already had for its alive-processor list.
#pragma once

#include <span>
#include <vector>

#include "hdlts/graph/task_graph.hpp"
#include "hdlts/platform/platform.hpp"
#include "hdlts/sim/cost_table.hpp"

namespace hdlts::sim {

class CompiledProblem {
 public:
  /// Validates dimensions and acyclicity, then flattens. Throws
  /// InvalidArgument exactly where Workload::validate would.
  CompiledProblem(const graph::TaskGraph& g, const CostTable& costs,
                  const platform::Platform& platform);

  std::size_t num_tasks() const { return num_tasks_; }
  /// Total platform processors (columns of W); not all need be alive.
  std::size_t num_procs() const { return num_procs_; }
  std::size_t num_edges() const { return child_adj_.size(); }

  /// Alive processors in increasing id order (the scheduling domain).
  std::span<const platform::ProcId> procs() const { return procs_; }
  std::size_t num_alive() const { return procs_.size(); }

  static constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);
  /// Position of p in procs(), or kNoColumn for a dead processor.
  std::size_t column_of(platform::ProcId p) const { return column_of_[p]; }

  // --- CSR adjacency (order preserved from the TaskGraph) ---

  std::span<const graph::Adjacent> children(graph::TaskId v) const {
    return {child_adj_.data() + child_off_[v],
            child_off_[v + 1] - child_off_[v]};
  }
  std::span<const graph::Adjacent> parents(graph::TaskId v) const {
    return {parent_adj_.data() + parent_off_[v],
            parent_off_[v + 1] - parent_off_[v]};
  }
  std::size_t out_degree(graph::TaskId v) const {
    return child_off_[v + 1] - child_off_[v];
  }
  std::size_t in_degree(graph::TaskId v) const {
    return parent_off_[v + 1] - parent_off_[v];
  }
  /// Data volume on edge u -> v; throws InvalidArgument if absent.
  double edge_data(graph::TaskId u, graph::TaskId v) const;

  // --- costs ---

  double exec_time(graph::TaskId v, platform::ProcId p) const {
    return w_[static_cast<std::size_t>(v) * num_procs_ + p];
  }
  /// Full W row of task v (all processors, alive or not).
  std::span<const double> cost_row(graph::TaskId v) const {
    return {w_.data() + static_cast<std::size_t>(v) * num_procs_, num_procs_};
  }
  double mean_cost(graph::TaskId v) const { return mean_cost_[v]; }
  double min_cost(graph::TaskId v) const { return min_cost_[v]; }
  double stddev_cost(graph::TaskId v) const { return stddev_cost_[v]; }
  /// True when the task costs nothing on every processor (pseudo task).
  bool is_free_task(graph::TaskId v) const { return free_task_[v] != 0; }

  // --- energy (cached from the platform power model) ---
  //
  // Decomposition: running task v on processor p costs
  //   dyn_energy(v, p) = W(v, p) * (busy_power(p) - idle_power(p))
  // joules above the baseline the processor burns anyway, and every alive
  // processor additionally burns static_power(p) = idle_power(p) joules per
  // unit time for the whole schedule horizon. Total schedule energy is then
  //   sum(dyn_energy over placements) + makespan * total_static_power(),
  // which equals the busy/idle split metrics::energy reports.

  double dyn_energy(graph::TaskId v, platform::ProcId p) const {
    return dyn_energy_[static_cast<std::size_t>(v) * num_procs_ + p];
  }
  /// Full dynamic-energy row of task v (all processors, alive or not).
  std::span<const double> dyn_energy_row(graph::TaskId v) const {
    return {dyn_energy_.data() + static_cast<std::size_t>(v) * num_procs_,
            num_procs_};
  }
  /// Baseline (idle) draw of processor p, cached from the platform.
  double static_power(platform::ProcId p) const { return static_power_[p]; }
  /// Busy draw of processor p, cached from the platform.
  double busy_power(platform::ProcId p) const { return busy_power_[p]; }
  /// Sum of static_power over the alive processors.
  double total_static_power() const { return total_static_power_; }

  // --- communication ---

  double bandwidth(platform::ProcId a, platform::ProcId b) const {
    return bw_[static_cast<std::size_t>(a) * num_procs_ + b];
  }
  double comm_time_data(double data, platform::ProcId pu,
                        platform::ProcId pv) const {
    if (pu == pv) return 0.0;
    return data / bw_[static_cast<std::size_t>(pu) * num_procs_ + pv];
  }
  double mean_comm_data(double data) const { return data / mean_bandwidth_; }
  double mean_bandwidth() const { return mean_bandwidth_; }

  // --- structure ---

  std::span<const graph::TaskId> topo_order() const { return topo_; }
  std::span<const graph::TaskId> entry_tasks() const { return entries_; }
  std::span<const graph::TaskId> exit_tasks() const { return exits_; }
  /// Precedence level of each task (entries at 0).
  std::span<const std::size_t> levels() const { return levels_; }

 private:
  std::size_t num_tasks_ = 0;
  std::size_t num_procs_ = 0;

  std::vector<std::size_t> child_off_;   // V + 1
  std::vector<std::size_t> parent_off_;  // V + 1
  std::vector<graph::Adjacent> child_adj_;
  std::vector<graph::Adjacent> parent_adj_;

  std::vector<double> w_;   // V x P row-major
  std::vector<double> bw_;  // P x P row-major, diagonal unused

  std::vector<double> mean_cost_;
  std::vector<double> min_cost_;
  std::vector<double> stddev_cost_;
  std::vector<unsigned char> free_task_;

  std::vector<double> dyn_energy_;     // V x P row-major
  std::vector<double> static_power_;   // P (= platform idle power)
  std::vector<double> busy_power_;     // P
  double total_static_power_ = 0.0;    // over alive processors

  std::vector<platform::ProcId> procs_;
  std::vector<std::size_t> column_of_;

  std::vector<graph::TaskId> topo_;
  std::vector<graph::TaskId> entries_;
  std::vector<graph::TaskId> exits_;
  std::vector<std::size_t> levels_;

  double mean_bandwidth_ = 1.0;
};

}  // namespace hdlts::sim
