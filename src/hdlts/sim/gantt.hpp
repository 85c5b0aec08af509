// Schedule visualization: ASCII Gantt chart and CSV placement dump.
#pragma once

#include <iosfwd>
#include <string>

#include "hdlts/sim/schedule.hpp"

namespace hdlts::sim {

struct GanttOptions {
  /// Total character width of the time axis.
  std::size_t width = 72;
  /// Label tasks by name instead of id when the graph is supplied.
  const graph::TaskGraph* graph = nullptr;
};

/// Renders one row per processor; blocks show task ids ('*' marks duplicate
/// placements). Intended for examples/debugging, not precise measurement.
void write_gantt(std::ostream& os, const Schedule& schedule,
                 const GanttOptions& options = {});

std::string to_gantt(const Schedule& schedule,
                     const GanttOptions& options = {});

/// CSV with one row per placement: task,name,proc,start,finish,duplicate.
void write_placements_csv(std::ostream& os, const Schedule& schedule,
                          const graph::TaskGraph* graph = nullptr);

}  // namespace hdlts::sim
