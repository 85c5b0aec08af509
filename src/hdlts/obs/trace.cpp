#include "hdlts/obs/trace.hpp"

#include <algorithm>
#include <utility>

#include "hdlts/sim/schedule.hpp"

namespace hdlts::obs {

void RecordingTrace::on_begin(const ScheduleBeginEvent& ev) {
  const std::lock_guard<std::mutex> lock(mu_);
  scheduler_.assign(ev.scheduler.begin(), ev.scheduler.end());
  num_tasks_ = ev.num_tasks;
  num_procs_ = ev.num_procs;
}

void RecordingTrace::on_step(const StepEvent& ev) {
  const std::lock_guard<std::mutex> lock(mu_);
  StepRecord r;
  r.step = ev.step;
  r.itq_tasks.assign(ev.itq_tasks.begin(), ev.itq_tasks.end());
  r.itq_pv.assign(ev.itq_pv.begin(), ev.itq_pv.end());
  r.selected = ev.selected;
  r.eft.assign(ev.eft.begin(), ev.eft.end());
  r.chosen = ev.chosen;
  r.start = ev.start;
  r.finish = ev.finish;
  steps_.push_back(std::move(r));
}

void RecordingTrace::on_duplication(const DuplicationEvent& ev) {
  const std::lock_guard<std::mutex> lock(mu_);
  duplications_.push_back(ev);
}

void RecordingTrace::on_placement(const PlacementEvent& ev) {
  const std::lock_guard<std::mutex> lock(mu_);
  placements_.push_back(ev);
}

void RecordingTrace::on_note(std::string_view kind, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(NoteRecord{std::string(kind), value});
}

void RecordingTrace::on_end(const ScheduleEndEvent& ev) {
  const std::lock_guard<std::mutex> lock(mu_);
  end_ = ev;
  has_end_ = true;
}

void RecordingTrace::reserve(std::size_t steps_hint) {
  const std::lock_guard<std::mutex> lock(mu_);
  steps_.reserve(steps_hint);
  placements_.reserve(steps_hint);
}

void RecordingTrace::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  scheduler_.clear();
  num_tasks_ = 0;
  num_procs_ = 0;
  steps_.clear();
  duplications_.clear();
  placements_.clear();
  notes_.clear();
  end_ = ScheduleEndEvent{};
  has_end_ = false;
}

std::string RecordingTrace::scheduler() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return scheduler_;
}

std::size_t RecordingTrace::num_tasks() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return num_tasks_;
}

std::size_t RecordingTrace::num_procs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return num_procs_;
}

RecordingTrace::StepRecord itq_in_task_order(RecordingTrace::StepRecord step) {
  std::vector<std::pair<graph::TaskId, double>> rows;
  for (std::size_t i = 0; i < step.itq_tasks.size(); ++i) {
    rows.emplace_back(step.itq_tasks[i], step.itq_pv[i]);
  }
  std::sort(rows.begin(), rows.end());  // ITQ task ids are unique
  for (std::size_t i = 0; i < rows.size(); ++i) {
    step.itq_tasks[i] = rows[i].first;
    step.itq_pv[i] = rows[i].second;
  }
  return step;
}

void emit_schedule(DecisionTrace* sink, std::string_view scheduler,
                   const sim::Schedule& schedule) {
  if (sink == nullptr) return;
  sink->on_begin(
      {scheduler, schedule.num_tasks(), schedule.num_procs()});
  std::size_t duplicates = 0;
  for (platform::ProcId p = 0; p < schedule.num_procs(); ++p) {
    for (const sim::Placement& pl : schedule.timeline(p)) {
      if (pl.duplicate) ++duplicates;
      sink->on_placement({pl.task, pl.proc, pl.start, pl.finish,
                          pl.duplicate});
    }
  }
  ScheduleEndEvent end;
  end.makespan = schedule.makespan();
  end.steps = schedule.num_placed();
  end.duplicates = duplicates;
  sink->on_end(end);
}

}  // namespace hdlts::obs
