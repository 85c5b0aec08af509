#include "hdlts/util/reduction_tree.hpp"

#include <algorithm>
#include <limits>

namespace hdlts::util {

namespace tree_ops {

std::size_t base_for(std::size_t n) {
  std::size_t base = 1;
  while (base < n) base *= 2;
  return base;
}

double identity(ReductionTree::Op op) {
  switch (op) {
    case ReductionTree::Op::kSum:
      return 0.0;
    case ReductionTree::Op::kMin:
      return std::numeric_limits<double>::infinity();
    case ReductionTree::Op::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  throw ContractViolation("unhandled ReductionTree::Op");
}

void fill_identity(ReductionTree::Op op, std::span<double> nodes) {
  std::fill(nodes.begin(), nodes.end(), identity(op));
}

void combine_up(ReductionTree::Op op, std::span<double> nodes,
                std::size_t base) {
  for (std::size_t i = base - 1; i >= 1; --i) {
    nodes[i] = combine(op, nodes[2 * i], nodes[2 * i + 1]);
  }
}

void assign(ReductionTree::Op op, std::span<double> nodes, std::size_t base,
            std::span<const double> xs) {
  std::copy(xs.begin(), xs.end(), nodes.begin() + static_cast<long>(base));
  combine_up(op, nodes, base);
}

void update(ReductionTree::Op op, std::span<double> nodes, std::size_t base,
            std::size_t i, double x) {
  std::size_t node = base + i;
  nodes[node] = x;
  for (node /= 2; node >= 1; node /= 2) {
    nodes[node] = combine(op, nodes[2 * node], nodes[2 * node + 1]);
  }
}

}  // namespace tree_ops

ReductionTree::ReductionTree(Op op, std::size_t n) : op_(op), n_(n) {
  if (n == 0) throw InvalidArgument("reduction tree needs >= 1 leaf");
  base_ = tree_ops::base_for(n_);
  node_.assign(2 * base_, tree_ops::identity(op_));
}

void ReductionTree::assign(std::span<const double> xs) {
  if (xs.size() != n_) {
    throw InvalidArgument("reduction tree assign: size mismatch");
  }
  tree_ops::assign(op_, node_, base_, xs);
}

void ReductionTree::update(std::size_t i, double x) {
  if (i >= n_) {
    throw InvalidArgument("reduction tree update: leaf out of range");
  }
  tree_ops::update(op_, node_, base_, i, x);
}

double ReductionTree::leaf(std::size_t i) const {
  if (i >= n_) throw InvalidArgument("reduction tree leaf: out of range");
  return node_[base_ + i];
}

}  // namespace hdlts::util
