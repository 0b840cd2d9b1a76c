#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "partition/baselines.hpp"

namespace wishbone::e2e {

namespace {

/// Relative tolerance on objectives: the solver's gap_rel (1e-6) plus
/// round-off in summing 1412 loads.
constexpr double kObjTol = 1e-5;

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

}  // namespace

void Tally::record(const std::string& reason, std::size_t n) {
  attempted_ += n;
  if (reason.empty() || n == 0) return;
  failed_ += n;
  reasons_[reason] += n;
}

void Tally::merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [reason, n] : other.reasons_) reasons_[reason] += n;
}

ReferenceAnswer reference_answer(const partition::PartitionProblem& p,
                                 Reference kind) {
  if (kind == Reference::kExhaustive) {
    const partition::BaselineResult ex = partition::exhaustive_partition(p);
    return {ex.feasible, ex.objective};
  }
  partition::BaselineResult r = partition::greedy_partition(p);
  if (!r.feasible) r = partition::server_baseline(p);
  return {r.feasible, r.objective};
}

std::string check_cut(const partition::PartitionProblem& p,
                      const std::vector<graph::Side>& sides,
                      double claimed_objective, double slack) {
  if (sides.size() != p.num_vertices()) return "cut has wrong size";
  const partition::AssignmentEval ev = partition::evaluate_assignment(p, sides);
  if (!ev.respects_pins) return "cut breaks a pin";
  if (!ev.unidirectional) return "cut sends data server to node";
  auto over = [slack](double used, double budget) {
    return used > budget * slack * (1.0 + 1e-12) + 1e-9;
  };
  if (over(ev.cpu, p.cpu_budget)) return "cut exceeds CPU budget";
  if (over(ev.net, p.net_budget)) return "cut exceeds network budget";
  if (over(ev.ram, p.ram_budget)) return "cut exceeds RAM budget";
  if (over(ev.rom, p.rom_budget)) return "cut exceeds ROM budget";
  const double obj = partition::objective_of(p, ev);
  const bool match =
      slack == 1.0
          ? close(claimed_objective, obj, kObjTol)
          : claimed_objective <= obj * slack * (1.0 + kObjTol) + 1e-9 &&
                obj <= claimed_objective * slack * (1.0 + kObjTol) + 1e-9;
  if (!match) return "objective differs from recomputed";
  return "";
}

std::string check_objective(double objective, const ReferenceAnswer& ref,
                            Reference kind) {
  if (!ref.feasible) return "";
  if (kind == Reference::kExhaustive) {
    return close(objective, ref.objective, kObjTol)
               ? ""
               : "objective differs from exhaustive optimum";
  }
  return objective <= ref.objective * (1.0 + kObjTol) + 1e-9
             ? ""
             : "objective worse than greedy cut";
}

std::string check_infeasible(const ReferenceAnswer& ref, Reference kind) {
  if (!ref.feasible) return "";
  return kind == Reference::kExhaustive
             ? "infeasible verdict, exhaustive search finds a cut"
             : "infeasible verdict, greedy finds a cut";
}

partition::PartitionProblem scaled(const partition::PartitionProblem& p,
                                   double s) {
  partition::PartitionProblem q = p;
  for (partition::ProblemVertex& v : q.vertices) {
    v.cpu *= s;
    v.ram_bytes *= s;
    v.rom_bytes *= s;
  }
  for (partition::ProblemEdge& e : q.edges) e.bandwidth *= s;
  return q;
}

}  // namespace wishbone::e2e
