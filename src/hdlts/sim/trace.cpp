#include "hdlts/sim/trace.hpp"

#include <ostream>
#include <sstream>

#include "hdlts/util/json.hpp"

namespace hdlts::sim {

namespace {

using util::write_json_number;

void write_block(std::ostream& os, const Placement& pl,
                 const graph::TaskGraph* graph) {
  os << "{\"task\":" << pl.task;
  if (graph != nullptr && graph->contains(pl.task)) {
    os << ",\"name\":\"" << util::json_escape(graph->name(pl.task)) << "\"";
  }
  os << ",\"proc\":" << pl.proc << ",\"start\":";
  write_json_number(os, pl.start);
  os << ",\"finish\":";
  write_json_number(os, pl.finish);
  os << ",\"duplicate\":" << (pl.duplicate ? "true" : "false") << "}";
}

}  // namespace

void write_schedule_json(std::ostream& os, const Schedule& schedule,
                         const graph::TaskGraph* graph) {
  os << "{\"makespan\":";
  write_json_number(os, schedule.makespan());
  os << ",\"processors\":" << schedule.num_procs() << ",\"blocks\":[";
  bool first = true;
  for (platform::ProcId p = 0; p < schedule.num_procs(); ++p) {
    for (const Placement& pl : schedule.timeline(p)) {
      if (!first) os << ",";
      first = false;
      write_block(os, pl, graph);
    }
  }
  os << "]}";
}

std::string schedule_json(const Schedule& schedule,
                          const graph::TaskGraph* graph) {
  std::ostringstream os;
  write_schedule_json(os, schedule, graph);
  return os.str();
}

void write_replay_json(std::ostream& os, const EngineResult& result) {
  // Every double funnels through util::write_json_number, which turns
  // non-finite values into `null` so the document stays valid JSON no matter
  // what times the engine hands us.
  os << "{\"makespan\":";
  write_json_number(os, result.makespan);
  os << ",\"matches_schedule\":"
     << (result.matches_schedule ? "true" : "false") << ",\"exact_times\":"
     << (result.exact_times ? "true" : "false") << ",\"deadlocked\":"
     << (result.deadlocked ? "true" : "false") << ",\"blocks\":[";
  for (std::size_t i = 0; i < result.blocks.size(); ++i) {
    const ExecutedBlock& b = result.blocks[i];
    if (i > 0) os << ",";
    os << "{\"task\":" << b.scheduled.task << ",\"proc\":" << b.scheduled.proc
       << ",\"duplicate\":" << (b.scheduled.duplicate ? "true" : "false")
       << ",\"scheduled\":[";
    write_json_number(os, b.scheduled.start);
    os << ",";
    write_json_number(os, b.scheduled.finish);
    os << "],\"actual\":[";
    write_json_number(os, b.actual_start);
    os << ",";
    write_json_number(os, b.actual_finish);
    os << "]}";
  }
  os << "]}";
}

std::string replay_json(const EngineResult& result) {
  std::ostringstream os;
  write_replay_json(os, result);
  return os.str();
}

}  // namespace hdlts::sim
