#include "bench_common.hpp"

#include <iostream>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/report/chart.hpp"
#include "hdlts/util/env.hpp"
#include "hdlts/util/table.hpp"

namespace hdlts::bench {

namespace {

double pick_metric(const metrics::SchedulerSummary& s, Metric metric) {
  switch (metric) {
    case Metric::kSlr:
      return s.slr.mean();
    case Metric::kEfficiency:
      return s.efficiency.mean();
    case Metric::kSpeedup:
      return s.speedup.mean();
    case Metric::kMakespan:
      return s.makespan.mean();
  }
  throw ContractViolation("unhandled Metric");
}

const char* metric_name(Metric metric) {
  switch (metric) {
    case Metric::kSlr:
      return "avg SLR";
    case Metric::kEfficiency:
      return "efficiency";
    case Metric::kSpeedup:
      return "speedup";
    case Metric::kMakespan:
      return "makespan";
  }
  return "?";
}

}  // namespace

std::size_t bench_reps(std::size_t fallback) {
  const auto reps = util::env_int("HDLTS_REPS", 0);
  return reps > 0 ? static_cast<std::size_t>(reps) : fallback;
}

std::vector<std::string> paper_scheduler_names() {
  return {"hdlts", "heft", "pets", "cpop", "peft", "sdbats"};
}

int run_sweep(const SweepConfig& config, const std::vector<SweepCell>& cells) {
  const std::vector<std::string> scheds =
      config.schedulers.empty() ? paper_scheduler_names() : config.schedulers;
  const std::size_t reps = bench_reps(config.default_reps);
  const auto base_seed =
      static_cast<std::uint64_t>(util::env_int("HDLTS_SEED", 42));
  const auto threads = util::env_int("HDLTS_THREADS", 0);
  const sched::Registry registry = core::default_registry();

  std::vector<std::string> header{config.x_label};
  for (const auto& s : scheds) header.push_back(s);
  util::Table table(std::move(header));

  report::LineChartSpec chart;
  chart.title = config.title;
  chart.x_label = config.x_label;
  chart.y_label = metric_name(config.metric);
  chart.y_from_zero = config.metric == Metric::kEfficiency;
  for (const auto& s : scheds) chart.series.push_back({s, {}});

  for (const SweepCell& cell : cells) {
    metrics::CompareOptions options;
    options.repetitions = reps;
    options.base_seed = base_seed;
    options.threads = threads > 0 ? static_cast<std::size_t>(threads) : 0;
    const auto rows =
        metrics::compare_schedulers(cell.factory, scheds, registry, options);
    std::vector<std::string> out{cell.x};
    chart.x_categories.push_back(cell.x);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double value = pick_metric(rows[i], config.metric);
      out.push_back(util::fmt(value, 3));
      chart.series[i].values.push_back(value);
    }
    table.add_row(std::move(out));
  }

  std::cout << "== " << config.name << ": " << config.title << " ==\n"
            << "metric: mean " << metric_name(config.metric) << " over "
            << reps << " repetitions (HDLTS_REPS to change; paper used 1000)"
            << "\n\n";
  table.write_markdown(std::cout);
  std::cout << "\ncsv:\n";
  table.write_csv(std::cout);
  std::cout << std::endl;

  const std::string csv_dir = util::env_string("HDLTS_CSV_DIR", "");
  if (!csv_dir.empty()) {
    table.save_csv(csv_dir + "/" + config.name + ".csv");
  }
  const std::string svg_dir = util::env_string("HDLTS_SVG_DIR", "");
  if (!svg_dir.empty()) {
    report::save_line_chart(svg_dir + "/" + config.name + ".svg", chart);
  }
  return 0;
}

}  // namespace hdlts::bench
