#include "hdlts/core/itq_engine.hpp"

#include <limits>

#include "hdlts/util/reduction_tree.hpp"

namespace hdlts::core {

namespace {

std::size_t tree_len_for(std::size_t np) {
  return 2 * util::tree_ops::base_for(np > 0 ? np : 1);
}

double eft_on(const sim::CompiledProblem& problem,
              const sim::Schedule& schedule, graph::TaskId v,
              platform::ProcId p, double ready, bool insertion) {
  const double duration = problem.exec_time(v, p);
  return schedule.earliest_start(p, ready, duration, insertion) + duration;
}

}  // namespace

ItqEngine::ItqEngine(util::ScratchArena& arena,
                     const sim::CompiledProblem& problem,
                     const sim::Schedule& schedule, PvKind pv, ItqRank rank,
                     bool insertion)
    : problem_(problem),
      schedule_(schedule),
      procs_(problem.procs()),
      np_(procs_.size()),
      pv_(pv),
      rank_(rank),
      insertion_(insertion),
      op_a_(pv_op_a(pv)),
      op_b_(pv_op_b(pv)),
      tree_len_(tree_len_for(np_)) {
  // Arrays are sized for the worst case (every task independent at once),
  // but slot ids are handed out sequentially and recycled LIFO, so only the
  // first peak-ITQ-width slots are ever touched.
  const std::size_t n = problem.num_tasks();
  const std::size_t trees = rank == ItqRank::kArrivalOrder ? 0 : n * tree_len_;
  leaf_of_ = arena.alloc<std::size_t>(np_);
  live_cols_ = arena.alloc<std::size_t>(np_);
  ready_ = arena.alloc<double>(n * np_);
  eft_ = arena.alloc<double>(n * np_);
  tree_a_ = arena.alloc<double>(trees);
  tree_b_ = arena.alloc<double>(trees);
  tasks_ = arena.alloc<graph::TaskId>(n);
  slots_ = arena.alloc<std::uint32_t>(n);
  keys_ = arena.alloc<double>(n);
  free_slots_ = arena.alloc<std::uint32_t>(n);
  dirty_ = arena.alloc<std::size_t>(np_);
  dirty_seen_ = arena.alloc<unsigned char>(np_);
  std::fill(dirty_seen_.begin(), dirty_seen_.end(),
            static_cast<unsigned char>(0));
  restart();
}

void ItqEngine::restart(std::span<const unsigned char> live) {
  size_ = 0;
  free_size_ = 0;
  next_slot_ = 0;
  pushes_ = 0;
  live_ = live;
  n_live_ = 0;
  for (std::size_t ci = 0; ci < np_; ++ci) {
    if (live.empty() || live[ci] != 0) {
      leaf_of_[ci] = n_live_;
      live_cols_[n_live_++] = ci;
    } else {
      leaf_of_[ci] = sim::CompiledProblem::kNoColumn;
    }
  }
  base_ = util::tree_ops::base_for(n_live_ > 0 ? n_live_ : 1);
}

void ItqEngine::push(graph::TaskId v, double floor) {
  const std::uint32_t slot =
      free_size_ > 0 ? free_slots_[--free_size_] : next_slot_++;
  const std::size_t qi = size_++;
  tasks_[qi] = v;
  slots_[qi] = slot;

  // Locals, not members, across the schedule calls: they stay in registers.
  const sim::CompiledProblem& problem = problem_;
  const sim::Schedule& schedule = schedule_;
  const auto procs = procs_;
  const std::size_t np = np_;
  const bool insertion = insertion_;
  const bool packed = n_live_ != np;
  const auto r = ready_.subspan(slot * np, np);
  const auto e = eft_.subspan(slot * np, np);
  for (std::size_t ci = 0; ci < np; ++ci) {
    if (packed && live_[ci] == 0) {
      // A dead column stays inert: +inf never wins the masked argmin, and
      // it has no leaf in the packed trees.
      r[ci] = 0.0;
      e[ci] = std::numeric_limits<double>::infinity();
      continue;
    }
    r[ci] = std::max(schedule.ready_time(problem, v, procs[ci]), floor);
    e[ci] = eft_on(problem, schedule, v, procs[ci], r[ci], insertion);
  }

  if (rank_ == ItqRank::kArrivalOrder) {
    keys_[qi] = -static_cast<double>(pushes_++);
    return;
  }
  // Leaves: the live EFT cells into A, pv_leaf_b of them into B, identity
  // padding; combine_up then rebuilds every internal node.
  double* const ta = tree_a_.data() + slot * tree_len_;
  double* const tb = tree_b_.data() + slot * tree_len_;
  if (packed) {
    for (std::size_t li = 0; li < n_live_; ++li) {
      ta[base_ + li] = e[live_cols_[li]];
    }
  } else {
    std::copy(e.begin(), e.end(), ta + base_);
  }
  for (std::size_t li = 0; li < n_live_; ++li) {
    tb[base_ + li] = pv_leaf_b(pv_, ta[base_ + li]);
  }
  std::fill(ta + base_ + n_live_, ta + 2 * base_,
            util::tree_ops::identity(op_a_));
  std::fill(tb + base_ + n_live_, tb + 2 * base_,
            util::tree_ops::identity(op_b_));
  util::tree_ops::combine_up(op_a_, {ta, 2 * base_}, base_);
  util::tree_ops::combine_up(op_b_, {tb, 2 * base_}, base_);
  // Under kFrozenPv this first value is the entry's key for good.
  keys_[qi] = pv_from_roots(pv_, n_live_, ta[1], tb[1]);
}

void ItqEngine::refresh(std::uint64_t mark) {
  std::size_t dirty_size = 0;
  for (const platform::ProcId p : schedule_.procs_changed_since(mark)) {
    const std::size_t ci = problem_.column_of(p);
    HDLTS_EXPECTS(ci != sim::CompiledProblem::kNoColumn);
    if (dirty_seen_[ci] == 0) {
      dirty_seen_[ci] = 1;
      dirty_[dirty_size++] = ci;
    }
  }
  for (std::size_t di = 0; di < dirty_size; ++di) dirty_seen_[dirty_[di]] = 0;
  eft_refreshes_ += dirty_size * size_;

  // Locals, not members, across the schedule calls: they stay in registers.
  const sim::CompiledProblem& problem = problem_;
  const sim::Schedule& schedule = schedule_;
  const auto procs = procs_;
  const std::size_t np = np_;
  const bool insertion = insertion_;
  const bool dynamic = rank_ == ItqRank::kDynamicPv;
  const std::size_t size = size_;
  for (std::size_t i = 0; i < size; ++i) {
    const graph::TaskId v = tasks_[i];
    const std::size_t slot = slots_[i];
    const double* const r = ready_.data() + slot * np;
    double* const e = eft_.data() + slot * np;
    bool changed = false;
    for (std::size_t di = 0; di < dirty_size; ++di) {
      const std::size_t ci = dirty_[di];
      const double f =
          eft_on(problem, schedule, v, procs[ci], r[ci], insertion);
      if (f == e[ci]) continue;
      e[ci] = f;
      // The row feeds processor selection under every rule; the trees only
      // matter while the PV follows the row.
      if (dynamic) {
        const std::size_t li = leaf_of_[ci];
        const auto ta = tree_a_.subspan(slot * tree_len_, tree_len_);
        const auto tb = tree_b_.subspan(slot * tree_len_, tree_len_);
        util::tree_ops::update(op_a_, ta, base_, li, f);
        util::tree_ops::update(op_b_, tb, base_, li, pv_leaf_b(pv_, f));
        changed = true;
      }
    }
    if (changed) {
      keys_[i] = pv_from_roots(pv_, n_live_, tree_a_[slot * tree_len_ + 1],
                               tree_b_[slot * tree_len_ + 1]);
    }
  }
}

}  // namespace hdlts::core
