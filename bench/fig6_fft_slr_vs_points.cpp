// Fig. 6: average SLR of the FFT application workflow vs input points
// (m = 4..32, i.e. 15..223 tasks).
#include "bench_common.hpp"
#include "hdlts/workload/fft.hpp"

int main() {
  using namespace hdlts;
  bench::SweepConfig config;
  config.name = "fig6_fft_slr_vs_points";
  config.title = "average SLR of FFT workflows vs input points";
  config.x_label = "points";
  config.metric = bench::Metric::kSlr;

  std::vector<bench::SweepCell> cells;
  for (const std::size_t m : {4u, 8u, 16u, 32u}) {
    cells.push_back(
        {std::to_string(m) + " (" +
             std::to_string(workload::fft_task_count(m)) + " tasks)",
         [m](std::uint64_t seed) {
           workload::FftParams p;
           p.points = m;
           p.costs.num_procs = 4;
           p.costs.ccr = 2.0;
           return workload::fft_workload(p, seed);
         }});
  }
  return bench::run_sweep(config, cells);
}
