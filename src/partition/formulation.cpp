#include "partition/formulation.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace wishbone::partition {

std::vector<double> net_coefficients(const PartitionProblem& p) {
  std::vector<double> coeff(p.vertices.size(), 0.0);
  for (const ProblemEdge& e : p.edges) {
    coeff[e.from] += e.bandwidth;
    coeff[e.to] -= e.bandwidth;
  }
  return coeff;
}

ilp::LinearProgram build_ilp(const PartitionProblem& p, Formulation form) {
  p.check();
  const bool restricted = form == Formulation::kRestricted;
  const std::size_t n = p.vertices.size();

  // Restricted formulation: fold the network load per vertex first so
  // that beta * net can go straight into the objective coefficients.
  std::vector<double> net_coeff;
  if (restricted) net_coeff = net_coefficients(p);

  ilp::LinearProgram lp;
  // f_v indicators with pinning folded into the bounds (Eq. 1). The
  // objective is alpha * c_v (Eq. 5 CPU term), plus beta times the
  // folded network term in the restricted formulation; the general one
  // charges the network on its per-edge variables instead.
  for (std::size_t v = 0; v < n; ++v) {
    const ProblemVertex& pv = p.vertices[v];
    const double obj = restricted ? p.alpha * pv.cpu + p.beta * net_coeff[v]
                                  : p.alpha * pv.cpu;
    const int idx = lp.add_binary("f_" + pv.name, obj);
    WB_ASSERT(idx == static_cast<int>(v));
    if (pv.req == Requirement::kNode) lp.set_bounds(idx, 1.0, 1.0);
    if (pv.req == Requirement::kServer) lp.set_bounds(idx, 0.0, 0.0);
  }

  // CPU budget (Eq. 2): sum f_v c_v <= C.
  {
    ilp::Constraint cpu;
    cpu.name = "cpu_budget";
    cpu.rel = ilp::Relation::kLe;
    cpu.rhs = p.cpu_budget;
    for (std::size_t v = 0; v < n; ++v) {
      if (p.vertices[v].cpu != 0.0) {
        cpu.terms.emplace_back(static_cast<int>(v), p.vertices[v].cpu);
      }
    }
    lp.add_constraint(std::move(cpu));
  }

  // Memory budgets (§4.2.1): identical knapsack rows over f_v, added
  // only when the platform actually constrains the resource.
  auto add_memory_row = [&lp, &p, n](const char* name, double budget,
                                     auto weight_of) {
    if (budget >= kNoResourceBudget) return;
    ilp::Constraint row;
    row.name = name;
    row.rel = ilp::Relation::kLe;
    row.rhs = budget;
    for (std::size_t v = 0; v < n; ++v) {
      const double w = weight_of(p.vertices[v]);
      if (w != 0.0) row.terms.emplace_back(static_cast<int>(v), w);
    }
    lp.add_constraint(std::move(row));
  };
  add_memory_row("ram_budget", p.ram_budget,
                 [](const ProblemVertex& v) { return v.ram_bytes; });
  add_memory_row("rom_budget", p.rom_budget,
                 [](const ProblemVertex& v) { return v.rom_bytes; });

  if (restricted) {
    // f_u - f_v >= 0 per edge (Eq. 6), then the net budget as one row.
    // Rows are named by edge index, as the general formulation's are:
    // the name fits the string's inline buffer, so a row costs one
    // allocation (its terms), not two.
    for (std::size_t ei = 0; ei < p.edges.size(); ++ei) {
      const ProblemEdge& e = p.edges[ei];
      ilp::Constraint mono;
      mono.name = "mono_" + std::to_string(ei);
      mono.rel = ilp::Relation::kGe;
      mono.rhs = 0.0;
      mono.terms = {{static_cast<int>(e.from), 1.0},
                    {static_cast<int>(e.to), -1.0}};
      lp.add_constraint(std::move(mono));
    }
    ilp::Constraint net;
    net.name = "net_budget";
    net.rel = ilp::Relation::kLe;
    net.rhs = p.net_budget;
    for (std::size_t v = 0; v < n; ++v) {
      if (net_coeff[v] != 0.0) {
        net.terms.emplace_back(static_cast<int>(v), net_coeff[v]);
      }
    }
    lp.add_constraint(std::move(net));
    return lp;
  }

  // General formulation (Eq. 3–5): e_uv, e'_uv >= 0 per edge.
  ilp::Constraint net;
  net.name = "net_budget";
  net.rel = ilp::Relation::kLe;
  net.rhs = p.net_budget;
  for (std::size_t ei = 0; ei < p.edges.size(); ++ei) {
    const ProblemEdge& e = p.edges[ei];
    const std::string tag = std::to_string(ei);
    // In any optimal solution e + e' ends up |f_u - f_v| (Eq. 3 keeps
    // them >= the two differences; minimization pulls them down), so an
    // upper bound of 1 is valid and tightens the relaxation.
    const int euv = lp.add_variable("e_" + tag, 0.0, 1.0,
                                    p.beta * e.bandwidth, false);
    const int epuv = lp.add_variable("e'_" + tag, 0.0, 1.0,
                                     p.beta * e.bandwidth, false);
    ilp::Constraint c1;  // f_u - f_v + e_uv >= 0
    c1.name = "cut+_" + tag;
    c1.rel = ilp::Relation::kGe;
    c1.rhs = 0.0;
    c1.terms = {{static_cast<int>(e.from), 1.0},
                {static_cast<int>(e.to), -1.0},
                {euv, 1.0}};
    lp.add_constraint(std::move(c1));
    ilp::Constraint c2;  // f_v - f_u + e'_uv >= 0
    c2.name = "cut-_" + tag;
    c2.rel = ilp::Relation::kGe;
    c2.rhs = 0.0;
    c2.terms = {{static_cast<int>(e.to), 1.0},
                {static_cast<int>(e.from), -1.0},
                {epuv, 1.0}};
    lp.add_constraint(std::move(c2));
    net.terms.emplace_back(euv, e.bandwidth);
    net.terms.emplace_back(epuv, e.bandwidth);
  }
  lp.add_constraint(std::move(net));
  return lp;
}

std::vector<Side> decode_solution(const PartitionProblem& p,
                                  const std::vector<double>& x) {
  WB_REQUIRE(x.size() >= p.vertices.size(), "solution vector too short");
  std::vector<Side> sides(p.vertices.size());
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    sides[v] = x[v] >= 0.5 ? Side::kNode : Side::kServer;
  }
  return sides;
}

std::optional<std::vector<double>> threshold_round(
    const PartitionProblem& p, const std::vector<double>& relaxed_f) {
  WB_REQUIRE(relaxed_f.size() >= p.vertices.size(),
             "relaxation vector too short");
  // Candidate thresholds: just above each distinct fractional value,
  // plus the extremes (all-server / everything-with-f=1).
  std::set<double> taus{0.5};
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    taus.insert(relaxed_f[v] + 1e-9);
  }
  taus.insert(1e-9);   // node side = every positive f
  taus.insert(1.0);    // node side = only f == 1 (within tolerance)

  double best_obj = ilp::kInf;
  std::optional<std::vector<double>> best;
  for (double tau : taus) {
    std::vector<Side> sides(p.vertices.size());
    for (std::size_t v = 0; v < p.vertices.size(); ++v) {
      // Pins always override the threshold.
      if (p.vertices[v].req == Requirement::kNode) {
        sides[v] = Side::kNode;
      } else if (p.vertices[v].req == Requirement::kServer) {
        sides[v] = Side::kServer;
      } else {
        sides[v] = relaxed_f[v] >= tau ? Side::kNode : Side::kServer;
      }
    }
    const AssignmentEval ev = evaluate_assignment(p, sides);
    if (!ev.feasible(p) || !ev.unidirectional) continue;
    const double obj = objective_of(p, ev);
    if (obj < best_obj) {
      best_obj = obj;
      std::vector<double> x(p.vertices.size());
      for (std::size_t v = 0; v < p.vertices.size(); ++v) {
        x[v] = sides[v] == Side::kNode ? 1.0 : 0.0;
      }
      best = std::move(x);
    }
  }
  return best;
}

}  // namespace wishbone::partition
