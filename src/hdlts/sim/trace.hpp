// Structured (JSON) export of schedules and replay traces, for downstream
// tooling (timeline viewers, notebooks) without committing to a JSON
// library dependency.
#pragma once

#include <iosfwd>
#include <string>

#include "hdlts/sim/engine.hpp"
#include "hdlts/sim/schedule.hpp"

namespace hdlts::sim {

/// {"makespan": ..., "processors": N, "blocks": [{"task":, "name":, "proc":,
///  "start":, "finish":, "duplicate":}, ...]}
void write_schedule_json(std::ostream& os, const Schedule& schedule,
                         const graph::TaskGraph* graph = nullptr);
std::string schedule_json(const Schedule& schedule,
                          const graph::TaskGraph* graph = nullptr);

/// {"makespan":, "matches_schedule":, "exact_times":, "deadlocked":,
///  "blocks": [{"task":, "proc":, "scheduled": [s, f], "actual": [s, f]}]}
void write_replay_json(std::ostream& os, const EngineResult& result);
std::string replay_json(const EngineResult& result);

}  // namespace hdlts::sim
