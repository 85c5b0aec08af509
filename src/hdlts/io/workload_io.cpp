#include "hdlts/io/workload_io.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "hdlts/graph/serialize.hpp"

namespace hdlts::io {

void write_workload(std::ostream& os, const sim::Workload& w) {
  w.validate();
  os.precision(17);
  graph::write_text(os, w.graph);
  const std::size_t np = w.platform.num_procs();
  os << "platform " << np << "\n";
  for (platform::ProcId a = 0; a < np; ++a) {
    for (platform::ProcId b = a + 1; b < np; ++b) {
      const double bw = w.platform.bandwidth(a, b);
      if (bw != 1.0) os << "bandwidth " << a << " " << b << " " << bw << "\n";
    }
  }
  for (graph::TaskId v = 0; v < w.graph.num_tasks(); ++v) {
    os << "cost " << v;
    for (platform::ProcId p = 0; p < np; ++p) os << " " << w.costs(v, p);
    os << "\n";
  }
}

sim::Workload read_workload(std::istream& is, const ReadLimits& limits) {
  // The graph section comes first; buffer the remaining directives because
  // graph::read_text consumes the stream to the end. We therefore split by
  // record kind ourselves.
  std::ostringstream graph_part;
  std::vector<std::string> rest;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream probe(line);
    std::string kind;
    probe >> kind;
    if (kind == "platform" || kind == "bandwidth" || kind == "cost") {
      rest.push_back(line);
    } else {
      graph_part << line << "\n";
    }
  }
  std::istringstream graph_is(graph_part.str());
  graph::TaskGraph g = graph::read_text(graph_is);
  if (g.num_tasks() > limits.max_tasks) {
    throw LimitExceeded("workload exceeds max_tasks");
  }

  std::optional<std::size_t> num_procs;
  std::vector<std::string> cost_lines;
  std::vector<std::string> bw_lines;
  for (const std::string& l : rest) {
    std::istringstream ls(l);
    std::string kind;
    ls >> kind;
    if (kind == "platform") {
      std::size_t np = 0;
      if (!(ls >> np) || np == 0) {
        throw InvalidArgument("malformed platform line: " + l);
      }
      num_procs = np;
    } else if (kind == "bandwidth") {
      bw_lines.push_back(l);
    } else {
      cost_lines.push_back(l);
    }
  }
  if (!num_procs) throw InvalidArgument("workload file lacks platform line");
  if (*num_procs > limits.max_procs) {
    throw LimitExceeded("workload exceeds max_procs");
  }

  platform::Platform platform(*num_procs);
  for (const std::string& l : bw_lines) {
    std::istringstream ls(l);
    std::string kind;
    platform::ProcId a = 0;
    platform::ProcId b = 0;
    double bw = 0.0;
    if (!(ls >> kind >> a >> b >> bw)) {
      throw InvalidArgument("malformed bandwidth line: " + l);
    }
    platform.set_bandwidth(a, b, bw);
  }

  sim::CostTable costs(g.num_tasks(), *num_procs);
  std::vector<bool> seen(g.num_tasks(), false);
  for (const std::string& l : cost_lines) {
    std::istringstream ls(l);
    std::string kind;
    graph::TaskId v = 0;
    if (!(ls >> kind >> v) || v >= g.num_tasks()) {
      throw InvalidArgument("malformed cost line: " + l);
    }
    for (platform::ProcId p = 0; p < *num_procs; ++p) {
      double c = 0.0;
      if (!(ls >> c)) throw InvalidArgument("short cost row: " + l);
      costs.set(v, p, c);
    }
    seen[v] = true;
  }
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    if (!seen[v]) {
      throw InvalidArgument("missing cost row for task " + std::to_string(v));
    }
  }

  sim::Workload w{std::move(g), std::move(costs), std::move(platform)};
  w.validate();
  return w;
}

void save_workload(const std::string& path, const sim::Workload& w) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  write_workload(out, w);
  if (!out) throw Error("write failed: " + path);
}

sim::Workload load_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open for reading: " + path);
  return read_workload(in);
}

}  // namespace hdlts::io
