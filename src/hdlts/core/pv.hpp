// HDLTS penalty-value (PV) arithmetic, shared by the incremental scheduler
// (core/hdlts.cpp) and the brute-force reference (core/reference.cpp).
//
// The PV condenses a task's EFT row into one number (paper Eq. 8). To make
// the incremental path provably bit-identical to a full recompute, both paths
// go through the same reduction arithmetic: the row moments (sum, sum of
// squares) and extrema are kept in fixed-shape pairwise reduction trees, so
// updating only the columns whose processor changed yields exactly the same
// PV as rebuilding from the full row. A single-column update costs O(log P)
// instead of the O(P) full reduction.
//
// PvAccumulator owns its trees (it backs penalty_value, the full recompute
// the reference oracles use); the schedulers carve tree node storage from a
// ScratchArena and drive it through util::tree_ops plus the pv_op_a/pv_op_b/
// pv_leaf_b/pv_from_roots helpers below — the same ops, the same leaf
// values, the same final formula, hence the same bits.
#pragma once

#include <cstddef>
#include <span>

#include "hdlts/util/reduction_tree.hpp"

namespace hdlts::core {

/// How the penalty value condenses the EFT vector. The paper uses the sample
/// standard deviation; the alternatives are ablation variants (bench X3).
enum class PvKind { kSampleStddev, kPopulationStddev, kRange };

/// Reduction op of the A tree (sum of EFT for stddev kinds, min for range).
inline util::ReductionTree::Op pv_op_a(PvKind kind) {
  return kind == PvKind::kRange ? util::ReductionTree::Op::kMin
                                : util::ReductionTree::Op::kSum;
}

/// Reduction op of the B tree (sum of EFT^2 for stddev kinds, max for range).
inline util::ReductionTree::Op pv_op_b(PvKind kind) {
  return kind == PvKind::kRange ? util::ReductionTree::Op::kMax
                                : util::ReductionTree::Op::kSum;
}

/// The B-tree leaf value for an EFT entry (eft^2 for stddev kinds).
inline double pv_leaf_b(PvKind kind, double eft) {
  return kind == PvKind::kRange ? eft : eft * eft;
}

/// The penalty value given the two tree roots over a row of length n. This
/// is the single formula every PV in the codebase funnels through.
double pv_from_roots(PvKind kind, std::size_t n, double root_a, double root_b);

/// Incrementally maintained PV of one EFT row of length P (the alive
/// processor count). Holds two reduction trees: sum / sum-of-squares for the
/// stddev kinds, min / max for the range kind.
class PvAccumulator {
 public:
  PvAccumulator(PvKind kind, std::size_t num_procs);

  std::size_t size() const { return a_.size(); }

  /// Rebuilds from a full row (row.size() must equal size()). O(P).
  void assign(std::span<const double> row);

  /// Replaces column i with eft. O(log P).
  void update(std::size_t i, double eft);

  /// The penalty value of the current row. O(1).
  double pv() const;

 private:
  PvKind kind_;
  util::ReductionTree a_;  // sum of EFT   | min EFT
  util::ReductionTree b_;  // sum of EFT^2 | max EFT
};

/// The canonical PV of a full row: a fresh PvAccumulator reduction. This is
/// the arithmetic contract every HDLTS path (incremental, frozen-priority,
/// reference) computes PVs with.
double penalty_value(PvKind kind, std::span<const double> row);

}  // namespace hdlts::core
