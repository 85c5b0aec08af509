// Task-ranking computations shared by the list schedulers.
//
// All ranks use processor-independent mean values (mean execution time and
// data volume / mean bandwidth), following the conventions of the original
// publications (HEFT/CPOP: Topcuoglu et al. 2002, PEFT: Arabnejad & Barbosa
// 2014, PETS: Ilavarasan et al. 2005, SDBATS: Munir et al. 2013).
//
// Each rank reads the flat sim::CompiledProblem view and writes into
// caller-provided storage (the ported schedulers carve it from their
// ScratchArena); the vector-returning sim::Problem overloads run the same
// code on problem.compiled() for unported callers and tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "hdlts/sim/problem.hpp"

namespace hdlts::sched {

/// HEFT upward rank: rank_u(v) = weight(v) + max over children c of
/// (mean_comm(v,c) + rank_u(c)); exit tasks have rank_u = weight.
/// `weight(v)` is the task's mean cost for HEFT, its cost stddev for SDBATS.
template <typename WeightFn>
void upward_rank(const sim::CompiledProblem& view, WeightFn weight,
                 std::span<double> rank) {
  const auto order = view.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const graph::TaskId v = *it;
    double best = 0.0;
    for (const graph::Adjacent& c : view.children(v)) {
      best = std::max(best, view.mean_comm_data(c.data) + rank[c.task]);
    }
    rank[v] = weight(v) + best;
  }
}

inline void upward_rank_mean(const sim::CompiledProblem& view,
                             std::span<double> rank) {
  upward_rank(view, [&](graph::TaskId v) { return view.mean_cost(v); }, rank);
}

inline void upward_rank_stddev(const sim::CompiledProblem& view,
                               std::span<double> rank) {
  upward_rank(view, [&](graph::TaskId v) { return view.stddev_cost(v); },
              rank);
}

/// CPOP downward rank: rank_d(v) = max over parents u of
/// (rank_d(u) + mean_W(u) + mean_comm(u,v)); entry tasks have rank_d = 0.
inline void downward_rank_mean(const sim::CompiledProblem& view,
                               std::span<double> rank) {
  const auto order = view.topo_order();
  std::fill(rank.begin(), rank.end(), 0.0);
  for (const graph::TaskId v : order) {
    for (const graph::Adjacent& p : view.parents(v)) {
      rank[v] = std::max(rank[v], rank[p.task] + view.mean_cost(p.task) +
                                      view.mean_comm_data(p.data));
    }
  }
}

/// PEFT Optimistic Cost Table: OCT(v,p) = max over children c of
/// min over q of (OCT(c,q) + W(c,q) + [p != q] * mean_comm(v,c));
/// exit rows are zero. Row-major: oct[v * np + pi] with np the number of
/// *alive* processors, indexed by position in view.procs().
inline void oct_table(const sim::CompiledProblem& view, std::span<double> oct) {
  const auto& procs = view.procs();
  const std::size_t np = procs.size();
  const auto order = view.topo_order();
  std::fill(oct.begin(), oct.end(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const graph::TaskId v = *it;
    for (std::size_t pi = 0; pi < np; ++pi) {
      double worst = 0.0;
      for (const graph::Adjacent& c : view.children(v)) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t qi = 0; qi < np; ++qi) {
          const double comm = pi == qi ? 0.0 : view.mean_comm_data(c.data);
          best = std::min(best, oct[c.task * np + qi] +
                                    view.exec_time(c.task, procs[qi]) + comm);
        }
        worst = std::max(worst, best);
      }
      oct[v * np + pi] = worst;
    }
  }
}

/// Mean of the OCT row of each task — the PEFT priority (rank_oct).
inline void oct_rank(const sim::CompiledProblem& view,
                     std::span<const double> oct, std::span<double> rank) {
  const std::size_t np = view.procs().size();
  HDLTS_EXPECTS(oct.size() == view.num_tasks() * np);
  for (graph::TaskId v = 0; v < view.num_tasks(); ++v) {
    double sum = 0.0;
    for (std::size_t pi = 0; pi < np; ++pi) sum += oct[v * np + pi];
    rank[v] = sum / static_cast<double>(np);
  }
}

/// PETS attributes per task, written into caller storage.
struct PetsRankSpans {
  std::span<double> acc;   ///< Average computation cost (mean W row).
  std::span<double> dtc;   ///< Data transfer cost: sum of out-edge comm.
  std::span<double> rpt;   ///< Highest rank among immediate predecessors.
  std::span<double> rank;  ///< round(acc + dtc + rpt).
};

inline void pets_rank(const sim::CompiledProblem& view, PetsRankSpans out) {
  const std::size_t n = view.num_tasks();
  std::fill(out.rpt.begin(), out.rpt.end(), 0.0);
  for (graph::TaskId v = 0; v < n; ++v) {
    out.acc[v] = view.mean_cost(v);
    double dtc = 0.0;
    for (const graph::Adjacent& c : view.children(v)) {
      dtc += view.mean_comm_data(c.data);
    }
    out.dtc[v] = dtc;
  }
  // RPT needs parent ranks, so ranks are computed in topological order.
  const auto order = view.topo_order();
  for (const graph::TaskId v : order) {
    for (const graph::Adjacent& p : view.parents(v)) {
      out.rpt[v] = std::max(out.rpt[v], out.rank[p.task]);
    }
    out.rank[v] = std::round(out.acc[v] + out.dtc[v] + out.rpt[v]);
  }
}

// --- sim::Problem wrappers (vector-returning) ---

std::vector<double> upward_rank_mean(const sim::Problem& problem);
std::vector<double> downward_rank_mean(const sim::Problem& problem);
std::vector<double> upward_rank_stddev(const sim::Problem& problem);
std::vector<double> oct_table(const sim::Problem& problem);
std::vector<double> oct_rank(const sim::Problem& problem,
                             const std::vector<double>& oct);

/// PETS attributes per task (owning form).
struct PetsRank {
  std::vector<double> acc;
  std::vector<double> dtc;
  std::vector<double> rpt;
  std::vector<double> rank;
};
PetsRank pets_rank(const sim::Problem& problem);

}  // namespace hdlts::sched
