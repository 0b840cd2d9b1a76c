#include "partition/problem.hpp"

#include "util/assert.hpp"

namespace wishbone::partition {

std::vector<std::size_t> PartitionProblem::topo_order() const {
  // Kahn's algorithm over a CSR successor list (edge order within each
  // vertex); `order` doubles as the FIFO queue of ready vertices.
  const std::size_t n = vertices.size();
  std::vector<std::size_t> indeg(n, 0), first(n + 1, 0);
  for (const ProblemEdge& e : edges) {
    ++indeg[e.to];
    ++first[e.from + 1];
  }
  for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<std::size_t> succ(edges.size());
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (const ProblemEdge& e : edges) succ[fill[e.from]++] = e.to;

  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::size_t v = order[head];
    for (std::size_t s = first[v]; s < first[v + 1]; ++s) {
      if (--indeg[succ[s]] == 0) order.push_back(succ[s]);
    }
  }
  WB_REQUIRE(order.size() == n, "partition problem contains a cycle");
  return order;
}

double PartitionProblem::in_bandwidth(std::size_t v) const {
  double s = 0.0;
  for (const ProblemEdge& e : edges) {
    if (e.to == v) s += e.bandwidth;
  }
  return s;
}

double PartitionProblem::out_bandwidth(std::size_t v) const {
  double s = 0.0;
  for (const ProblemEdge& e : edges) {
    if (e.from == v) s += e.bandwidth;
  }
  return s;
}

void PartitionProblem::check() const {
  WB_REQUIRE(!vertices.empty(), "partition problem has no vertices");
  WB_REQUIRE(cpu_budget >= 0.0 && net_budget >= 0.0, "negative budget");
  WB_REQUIRE(alpha >= 0.0 && beta >= 0.0, "negative objective weight");
  for (const ProblemVertex& v : vertices) {
    WB_REQUIRE(v.cpu >= 0.0, "negative CPU weight on '" + v.name + "'");
    WB_REQUIRE(v.ram_bytes >= 0.0 && v.rom_bytes >= 0.0,
               "negative memory weight on '" + v.name + "'");
  }
  for (const ProblemEdge& e : edges) {
    WB_REQUIRE(e.from < vertices.size() && e.to < vertices.size(),
               "edge endpoint out of range");
    WB_REQUIRE(e.from != e.to, "self-loop in partition problem");
    WB_REQUIRE(e.bandwidth >= 0.0, "negative bandwidth");
  }
  (void)topo_order();
}

AssignmentEval evaluate_assignment(const PartitionProblem& p,
                                   const std::vector<Side>& sides) {
  WB_REQUIRE(sides.size() == p.vertices.size(),
             "assignment size mismatch");
  AssignmentEval ev;
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    const Requirement r = p.vertices[v].req;
    if (r == Requirement::kNode && sides[v] != Side::kNode) {
      ev.respects_pins = false;
    }
    if (r == Requirement::kServer && sides[v] != Side::kServer) {
      ev.respects_pins = false;
    }
    if (sides[v] == Side::kNode) {
      ev.cpu += p.vertices[v].cpu;
      ev.ram += p.vertices[v].ram_bytes;
      ev.rom += p.vertices[v].rom_bytes;
    }
  }
  for (const ProblemEdge& e : p.edges) {
    if (sides[e.from] != sides[e.to]) {
      ev.net += e.bandwidth;
      if (sides[e.from] == Side::kServer) ev.unidirectional = false;
    }
  }
  return ev;
}

double objective_of(const PartitionProblem& p, const AssignmentEval& ev) {
  return p.alpha * ev.cpu + p.beta * ev.net;
}

PartitionProblem make_problem(const graph::Graph& g,
                              const graph::PinAnalysis& pins,
                              const profile::ProfileData& pd,
                              const profile::PlatformModel& plat,
                              double events_per_sec, LoadStatistic stat) {
  WB_REQUIRE(events_per_sec > 0.0, "event rate must be positive");
  WB_REQUIRE(pins.requirement.size() == g.num_operators(),
             "pin analysis does not match graph");
  PartitionProblem p;
  p.vertices.reserve(g.num_operators());
  for (OperatorId v = 0; v < g.num_operators(); ++v) {
    const graph::OperatorInfo& oi = g.info(v);
    ProblemVertex pv;
    pv.name = oi.name;
    pv.cpu = stat == LoadStatistic::kMean
                 ? pd.cpu_fraction(plat, v, events_per_sec)
                 : pd.peak_cpu_fraction(plat, v, events_per_sec);
    pv.req = pins.requirement[v];
    pv.ops = {v};
    // Memory: developer-declared footprint, or an estimate from the
    // profile. The depth-first runtime passes frames downstream without
    // per-operator queues (§5.2), so the estimate charges fixed state
    // plus a fraction of one output frame of scratch.
    if (oi.ram_bytes > 0) {
      pv.ram_bytes = static_cast<double>(oi.ram_bytes);
    } else {
      const double avg_frame =
          pd.op_elements_out[v] > 0
              ? pd.op_bytes_out[v] /
                    static_cast<double>(pd.op_elements_out[v])
              : 0.0;
      pv.ram_bytes = 48.0 + 0.25 * avg_frame;
    }
    pv.rom_bytes = oi.rom_bytes > 0 ? static_cast<double>(oi.rom_bytes)
                                    : 600.0;
    p.vertices.push_back(std::move(pv));
  }
  p.edges.reserve(g.num_edges());
  for (std::size_t ei = 0; ei < g.num_edges(); ++ei) {
    const graph::Edge& e = g.edges()[ei];
    const double bw = stat == LoadStatistic::kMean
                          ? pd.bandwidth(ei, events_per_sec)
                          : pd.peak_bandwidth(ei, events_per_sec);
    p.edges.push_back(ProblemEdge{e.from, e.to, bw});
  }
  p.cpu_budget = plat.cpu_budget;
  p.net_budget = plat.radio_bytes_per_sec;
  p.ram_budget = plat.ram_budget_bytes;
  p.rom_budget = plat.rom_budget_bytes;
  p.alpha = plat.alpha;
  p.beta = plat.beta;
  p.check();
  return p;
}

std::vector<Side> expand_assignment(const PartitionProblem& p,
                                    const std::vector<Side>& sides,
                                    std::size_t num_operators) {
  WB_REQUIRE(sides.size() == p.vertices.size(), "assignment size mismatch");
  std::vector<Side> out(num_operators, Side::kServer);
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    for (OperatorId op : op_ids(p, v)) {
      WB_REQUIRE(op < num_operators, "operator id out of range in mapping");
      out[op] = sides[v];
    }
  }
  return out;
}

}  // namespace wishbone::partition
