// Full-workload serialization (graph + W matrix + platform bandwidth), so a
// generated problem instance can be archived and re-run bit-identically.
//
// Format extends the graph text format (hdlts/graph/serialize.hpp) with:
//   platform <num_procs>
//   bandwidth <src> <dst> <value>     (only non-default links)
//   cost <task> <w_p1> <w_p2> ... <w_pp>
#pragma once

#include <iosfwd>
#include <limits>
#include <string>

#include "hdlts/sim/problem.hpp"

namespace hdlts::io {

/// Size caps read_workload checks before it builds the platform or the cost
/// table; the defaults accept any file.
struct ReadLimits {
  std::size_t max_tasks = std::numeric_limits<std::size_t>::max();
  std::size_t max_procs = std::numeric_limits<std::size_t>::max();
};

/// Thrown by read_workload when the text declares more tasks or processors
/// than its ReadLimits allow.
class LimitExceeded : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

void write_workload(std::ostream& os, const sim::Workload& w);
sim::Workload read_workload(std::istream& is, const ReadLimits& limits = {});

void save_workload(const std::string& path, const sim::Workload& w);
sim::Workload load_workload(const std::string& path);

}  // namespace hdlts::io
