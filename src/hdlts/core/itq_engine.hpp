// The HDLTS decision state (Algorithm 2's dynamic Independent Task Queue),
// shared by every mode that runs the loop: static core::Hdlts, the online
// failure runtime core::OnlineHdlts and the workflow stream
// core::StreamHdlts. Each mode is a thin loop that owns its schedule and
// its task-release rule (in-degree countdown, phases after a failure,
// arrivals) and feeds the engine three inputs:
//   * an EST floor per pushed task — 0 for static, the phase start for
//     online, the owning workflow's arrival for stream. Every EFT is
//     earliest_start(p, max(ready(v, p), floor), W(v, p), insertion) + W;
//   * the live columns — online drops a failed processor's column; static,
//     stream and online before its first failure keep every column;
//   * the rank rule (ItqRank).
//
// State lives in slot-indexed SoA rows carved from the caller's scratch
// arena: a slot is taken when a task enters the ITQ and recycled (LIFO)
// when it leaves, so the touched working set is bounded by the peak ITQ
// width, not by V. Each entry caches its EFT row and its PV moments in two
// fixed-shape reduction trees (core/pv.hpp); after a placement only the
// columns whose processor changed (sim::Schedule::procs_changed_since) are
// recomputed, each in O(log P). The trees' leaves are the live columns
// packed in column order over base_for(#live) — the tree shape
// penalty_value builds over the compacted row, so a refresh yields the
// bits of a full recompute on the surviving processors (identity-padding a
// dead column instead would change the pairwise summation order). pick()
// and min_eft_column() run the two-pass kernels of simd/kernels.hpp. Every
// mode is bit-identical to its naive reference in core/reference.hpp, a
// loop over core::ReferenceItq: core::ReferenceHdlts
// (tests/incremental_equiv_test.cpp), core::reference_online and
// core::reference_stream (tests/online_test.cpp, tests/stream_test.cpp,
// tests/dst_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "hdlts/core/pv.hpp"
#include "hdlts/sim/compiled.hpp"
#include "hdlts/sim/schedule.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/arena.hpp"

namespace hdlts::core {

/// How the ITQ ranks its entries; the highest key wins, ties to the lower
/// task id.
enum class ItqRank {
  kDynamicPv,     ///< PV, refreshed whenever an EFT cell changes (the paper)
  kFrozenPv,      ///< PV computed once, when the task enters the ITQ
  kArrivalOrder,  ///< key −(push order): first pushed, first picked; no PV
};

class ItqEngine {
 public:
  /// Carves state for every task of `problem` from `arena` (which the
  /// caller has reset) and starts an empty ITQ over every column. The
  /// engine reads `schedule` and never writes it.
  ItqEngine(util::ScratchArena& arena, const sim::CompiledProblem& problem,
            const sim::Schedule& schedule, PvKind pv, ItqRank rank,
            bool insertion);

  /// Empties the ITQ and sets the live columns (live[ci] != 0); an empty
  /// span keeps every column live. The span must outlive the ITQ.
  void restart(std::span<const unsigned char> live = {});

  /// Enqueues `v`, whose parents are all placed, and fills its EFT row and
  /// rank key against the current schedule.
  void push(graph::TaskId v, double floor);

  bool empty() const { return size_ == 0; }

  /// ITQ position of the highest-ranked entry.
  std::size_t pick() {
    high_water_ = std::max(high_water_, size_);
    return simd::argmax_key(keys_.data(), tasks_.data(), size_);
  }

  graph::TaskId task(std::size_t pos) const { return tasks_[pos]; }

  /// The entry's cached EFT row over the columns of problem.procs() (a dead
  /// column reads +inf). Stays valid after remove() until the next push().
  std::span<const double> row(std::size_t pos) const {
    return eft_.subspan(slots_[pos] * np_, np_);
  }

  /// The live column with the minimum EFT in `row`, ties to the lower
  /// column.
  std::size_t min_eft_column(std::span<const double> row) const {
    return n_live_ == np_ ? simd::argmin(row.data(), np_)
                          : simd::argmin_masked(row.data(), live_.data(), np_);
  }

  /// Swap-removes the entry at `pos` and recycles its slot.
  void remove(std::size_t pos) {
    const std::size_t last = size_ - 1;
    free_slots_[free_size_++] = slots_[pos];
    tasks_[pos] = tasks_[last];
    slots_[pos] = slots_[last];
    keys_[pos] = keys_[last];
    size_ = last;
  }

  /// Recomputes, for every queued entry, the EFT cells of the processors
  /// the schedule changed since `mark` (a sim::Schedule::state_version()),
  /// and under kDynamicPv the PVs they move.
  void refresh(std::uint64_t mark);

  /// The ITQ in queue order and the rank key of each entry (the PV under
  /// the PV rules).
  std::span<const graph::TaskId> tasks() const {
    return {tasks_.data(), size_};
  }
  std::span<const double> keys() const { return {keys_.data(), size_}; }

  /// EFT cells recomputed by refresh() since construction.
  std::uint64_t eft_refreshes() const { return eft_refreshes_; }
  /// Largest ITQ width pick() has seen since construction.
  std::size_t high_water() const { return high_water_; }

 private:
  const sim::CompiledProblem& problem_;
  const sim::Schedule& schedule_;
  const std::span<const platform::ProcId> procs_;
  const std::size_t np_;
  const PvKind pv_;
  const ItqRank rank_;
  const bool insertion_;
  const util::ReductionTree::Op op_a_;
  const util::ReductionTree::Op op_b_;
  const std::size_t tree_len_;  // node stride of one entry's tree

  // Column space: the live mask (empty when every column is live), each
  // column's leaf and each leaf's column.
  std::span<const unsigned char> live_;
  std::size_t n_live_ = 0;
  std::size_t base_ = 1;  // leaf offset of the packed live-column trees
  std::span<std::size_t> leaf_of_;
  std::span<std::size_t> live_cols_;

  // Slot-indexed rows (ready times already floored) and PV trees.
  std::span<double> ready_;
  std::span<double> eft_;
  std::span<double> tree_a_;
  std::span<double> tree_b_;

  // The ITQ: position-parallel arrays, compacted by swap-remove, so the
  // selection scan is one contiguous sweep over the keys.
  std::span<graph::TaskId> tasks_;
  std::span<std::uint32_t> slots_;
  std::span<double> keys_;
  std::size_t size_ = 0;
  std::span<std::uint32_t> free_slots_;
  std::size_t free_size_ = 0;
  std::uint32_t next_slot_ = 0;
  std::size_t pushes_ = 0;

  std::span<std::size_t> dirty_;
  std::span<unsigned char> dirty_seen_;

  std::uint64_t eft_refreshes_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace hdlts::core
