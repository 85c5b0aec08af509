// Table I: the HDLTS schedule trace on the paper's worked example (the
// classic 10-task / 3-CPU graph) and the makespans of every compared
// algorithm (paper §IV: HDLTS 73, HEFT 80, PETS 77, PEFT 86, SDBATS 74).
#include <iostream>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/metrics/metrics.hpp"
#include "hdlts/obs/trace.hpp"
#include "hdlts/sim/gantt.hpp"
#include "hdlts/util/table.hpp"
#include "hdlts/workload/classic.hpp"

int main() {
  using namespace hdlts;
  const sim::Workload w = workload::classic_workload();
  const sim::Problem problem(w);

  obs::RecordingTrace trace;
  core::Hdlts hdlts;
  hdlts.set_trace_sink(&trace);
  const sim::Schedule schedule = hdlts.schedule(problem);

  std::cout << "== table1_example: HDLTS schedule produced at each step ==\n";
  std::cout << "entry task duplicated on:";
  for (const obs::DuplicationEvent& d : trace.duplications()) {
    if (d.accepted) std::cout << " " << w.platform.proc_name(d.candidate_proc);
  }
  std::cout << "\n\n";

  util::Table steps({"Step", "Ready Task", "Penalty Values", "Selected",
                     "EFT P1", "EFT P2", "EFT P3", "CPU"});
  for (std::size_t i = 0; i < trace.steps().size(); ++i) {
    const obs::RecordingTrace::StepRecord s =
        obs::itq_in_task_order(trace.steps()[i]);
    std::string ready;
    std::string pv;
    for (std::size_t j = 0; j < s.itq_tasks.size(); ++j) {
      if (j > 0) {
        ready += ", ";
        pv += ", ";
      }
      ready += "T" + std::to_string(s.itq_tasks[j] + 1);
      pv += util::fmt(s.itq_pv[j], 1);
    }
    steps.add_row({std::to_string(i + 1), ready, pv,
                   "T" + std::to_string(s.selected + 1), util::fmt(s.eft[0], 0),
                   util::fmt(s.eft[1], 0), util::fmt(s.eft[2], 0),
                   w.platform.proc_name(s.chosen)});
  }
  steps.write_markdown(std::cout);

  std::cout << "\nGantt chart (entry duplicates marked '*'):\n"
            << sim::to_gantt(schedule) << "\n";

  util::Table summary({"algorithm", "makespan", "SLR", "speedup",
                       "paper reports"});
  const char* paper[] = {"73", "80", "77", "n/a (HEFT paper: 86)", "86",
                         "74"};
  int i = 0;
  for (auto& s : core::paper_schedulers()) {
    const sim::Schedule sc = s->schedule(problem);
    summary.add_row({s->name(), util::fmt(sc.makespan(), 0),
                     util::fmt(metrics::slr(problem, sc), 3),
                     util::fmt(metrics::speedup(problem, sc), 3), paper[i++]});
  }
  std::cout << "== makespans on the worked example ==\n";
  summary.write_markdown(std::cout);
  std::cout << std::endl;
  return 0;
}
