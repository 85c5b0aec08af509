// Graphviz DOT export for debugging and documentation figures.
#pragma once

#include <iosfwd>
#include <string>

#include "hdlts/graph/task_graph.hpp"

namespace hdlts::graph {

struct DotOptions {
  /// Graph name emitted in the `digraph <name>` header.
  std::string name = "workflow";
  /// Include edge data volumes as edge labels.
  bool edge_labels = true;
  /// Include task work as part of node labels.
  bool work_labels = false;
};

/// Writes the graph in Graphviz DOT syntax.
void write_dot(std::ostream& os, const TaskGraph& g,
               const DotOptions& options = {});

/// Convenience overload returning the DOT text.
std::string to_dot(const TaskGraph& g, const DotOptions& options = {});

}  // namespace hdlts::graph
