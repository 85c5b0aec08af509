// Shared harness for the figure/table benches: runs the paper's comparison
// set over a sweep of workload cells and prints the same rows the paper's
// plots report (mean SLR or mean efficiency per scheduler), as an aligned
// markdown table plus a machine-readable CSV block.
//
// Environment knobs:
//   HDLTS_REPS     repetitions per cell (default 10; the paper used 1000)
//   HDLTS_SEED     base seed (default 42)
//   HDLTS_THREADS  engine worker threads for the repetitions
//                  (CompareOptions::threads; default 0 = hardware)
//   HDLTS_CSV_DIR  if set, each bench also writes <name>.csv there
//   HDLTS_SVG_DIR  if set, each bench also renders <name>.svg (a line chart
//                  shaped like the paper's figure)
#pragma once

#include <string>
#include <vector>

#include "hdlts/metrics/experiment.hpp"
#include "hdlts/util/table.hpp"

namespace hdlts::bench {

enum class Metric { kSlr, kEfficiency, kSpeedup, kMakespan };

struct SweepCell {
  std::string x;  ///< x-axis value label (e.g. "ccr=2.0")
  metrics::WorkloadFactory factory;
};

struct SweepConfig {
  std::string name;        ///< bench id, e.g. "fig2_random_slr_vs_ccr"
  std::string title;       ///< human title printed above the table
  std::string x_label;     ///< x-axis column header
  Metric metric = Metric::kSlr;
  std::vector<std::string> schedulers;  ///< default: the paper's six
  std::size_t default_reps = 100;
};

/// Number of repetitions after applying HDLTS_REPS.
std::size_t bench_reps(std::size_t fallback);

/// Runs the sweep and prints the table; returns 0 (main()-compatible).
int run_sweep(const SweepConfig& config, const std::vector<SweepCell>& cells);

/// The paper's comparison set in reporting order.
std::vector<std::string> paper_scheduler_names();

}  // namespace hdlts::bench
