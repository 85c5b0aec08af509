#include "hdlts/sched/ranking.hpp"

namespace hdlts::sched {

std::vector<double> upward_rank_mean(const sim::Problem& problem) {
  std::vector<double> rank(problem.num_tasks(), 0.0);
  upward_rank_mean(problem.compiled(), rank);
  return rank;
}

std::vector<double> upward_rank_stddev(const sim::Problem& problem) {
  std::vector<double> rank(problem.num_tasks(), 0.0);
  upward_rank_stddev(problem.compiled(), rank);
  return rank;
}

std::vector<double> downward_rank_mean(const sim::Problem& problem) {
  std::vector<double> rank(problem.num_tasks(), 0.0);
  downward_rank_mean(problem.compiled(), rank);
  return rank;
}

std::vector<double> oct_table(const sim::Problem& problem) {
  std::vector<double> oct(problem.num_tasks() * problem.procs().size(), 0.0);
  oct_table(problem.compiled(), oct);
  return oct;
}

std::vector<double> oct_rank(const sim::Problem& problem,
                             const std::vector<double>& oct) {
  std::vector<double> rank(problem.num_tasks(), 0.0);
  oct_rank(problem.compiled(), oct, rank);
  return rank;
}

PetsRank pets_rank(const sim::Problem& problem) {
  const std::size_t n = problem.num_tasks();
  PetsRank out;
  out.acc.resize(n);
  out.dtc.resize(n);
  out.rpt.resize(n);
  out.rank.resize(n);
  pets_rank(problem.compiled(),
            PetsRankSpans{out.acc, out.dtc, out.rpt, out.rank});
  return out;
}

}  // namespace hdlts::sched
