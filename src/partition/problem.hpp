// PartitionProblem: the abstract instance handed to the partitioning
// algorithms (§4): a DAG whose vertex weights are node-CPU costs and
// whose edge weights are bandwidths, plus resource budgets and the
// objective coefficients alpha/beta.
//
// Vertices carry a placement Requirement (node-pinned, server-pinned or
// movable) rather than only the movable subset, so that formulations
// can pin by variable bounds (Eq. 1). Each vertex remembers which
// original graph operators it stands for, which lets the preprocessing
// pass (§4.1) merge vertices while results remain expressible per
// original operator.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/pinning.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"

namespace wishbone::partition {

using graph::OperatorId;
using graph::Requirement;
using graph::Side;

/// Sentinel: the resource is not constrained.
inline constexpr double kNoResourceBudget = 1e300;

struct ProblemVertex {
  std::string name;
  double cpu = 0.0;  ///< node-CPU fraction consumed at the given rate
  double ram_bytes = 0.0;  ///< static state + buffers if on the node
  double rom_bytes = 0.0;  ///< code storage if on the node
  Requirement req = Requirement::kMovable;
  std::vector<OperatorId> ops;  ///< original operators represented
};

struct ProblemEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  double bandwidth = 0.0;  ///< payload bytes/s crossing this stream
};

struct PartitionProblem {
  std::vector<ProblemVertex> vertices;
  std::vector<ProblemEdge> edges;

  double cpu_budget = 1.0;   ///< C in Eq. 2 (fraction of node CPU)
  double net_budget = 0.0;   ///< N in Eq. 4 (payload bytes/s)
  /// §4.2.1: "Adding additional constraints for RAM usage (assuming
  /// static allocation) or code storage is straightforward in this
  /// formulation" — enabled whenever a finite budget is set.
  double ram_budget = kNoResourceBudget;
  double rom_budget = kNoResourceBudget;
  double alpha = 0.0;        ///< objective weight on CPU (Eq. 5)
  double beta = 1.0;         ///< objective weight on network (Eq. 5)

  [[nodiscard]] std::size_t num_vertices() const { return vertices.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges.size(); }

  /// Topological order of the problem DAG; throws on cycles.
  [[nodiscard]] std::vector<std::size_t> topo_order() const;

  /// Sum of bandwidths into / out of vertex v.
  [[nodiscard]] double in_bandwidth(std::size_t v) const;
  [[nodiscard]] double out_bandwidth(std::size_t v) const;

  /// Sanity checks (non-negative weights, edge indices in range,
  /// acyclicity); throws ContractError on violation.
  void check() const;
};

/// The original operators one problem vertex stands for: its `ops`, or
/// the vertex's own id when a hand-built problem leaves `ops` empty.
/// preprocess, solve_partition and expand_assignment all read the
/// mapping through this view (see op_ids).
class OpIds {
 public:
  OpIds(const std::vector<OperatorId>& ops, OperatorId self)
      : ops_(&ops), self_(self) {}
  [[nodiscard]] const OperatorId* begin() const {
    return ops_->empty() ? &self_ : ops_->data();
  }
  [[nodiscard]] const OperatorId* end() const { return begin() + size(); }
  [[nodiscard]] std::size_t size() const {
    return ops_->empty() ? 1 : ops_->size();
  }
  [[nodiscard]] OperatorId front() const { return *begin(); }

 private:
  const std::vector<OperatorId>* ops_;
  OperatorId self_;
};

[[nodiscard]] inline OpIds op_ids(const PartitionProblem& p, std::size_t v) {
  return OpIds(p.vertices[v].ops, v);
}

/// Evaluation of a concrete assignment against a problem.
struct AssignmentEval {
  bool respects_pins = true;
  bool unidirectional = true;  ///< no server->node edge (§2.1.2)
  double cpu = 0.0;            ///< node CPU used
  double net = 0.0;            ///< cut bandwidth (both directions)
  double ram = 0.0;            ///< node RAM used (bytes)
  double rom = 0.0;            ///< node code storage used (bytes)
  [[nodiscard]] bool feasible(const PartitionProblem& p) const {
    return respects_pins && cpu <= p.cpu_budget + 1e-9 &&
           net <= p.net_budget + 1e-9 &&
           ram <= p.ram_budget * (1.0 + 1e-12) + 1e-9 &&
           rom <= p.rom_budget * (1.0 + 1e-12) + 1e-9;
  }
};

/// Evaluates `sides` (one per problem vertex) under `p`. Counts every
/// cut edge's bandwidth regardless of direction (general model); the
/// `unidirectional` flag reports whether the restricted model's
/// single-crossing property holds.
[[nodiscard]] AssignmentEval evaluate_assignment(const PartitionProblem& p,
                                                 const std::vector<Side>& sides);

/// Objective value alpha*cpu + beta*net of an evaluated assignment.
[[nodiscard]] double objective_of(const PartitionProblem& p,
                                  const AssignmentEval& ev);

/// Which profiled load statistic to budget against (§4: "Because our
/// applications have predictable rates, we use mean load here. Peak
/// loads might be more appropriate in applications characterized by
/// 'bursty' rates").
enum class LoadStatistic { kMean, kPeak };

/// Builds a problem from a profiled graph: one vertex per operator,
/// CPU fractions and bandwidths scaled to `events_per_sec` on platform
/// `plat`. Budgets default to the platform's CPU budget and radio
/// goodput; alpha/beta default to the platform's objective weights.
[[nodiscard]] PartitionProblem make_problem(
    const graph::Graph& g, const graph::PinAnalysis& pins,
    const profile::ProfileData& pd, const profile::PlatformModel& plat,
    double events_per_sec, LoadStatistic stat = LoadStatistic::kMean);

/// Expands per-problem-vertex sides to per-original-operator sides
/// (vertex v covers op_ids(p, v)).
[[nodiscard]] std::vector<Side> expand_assignment(
    const PartitionProblem& p, const std::vector<Side>& sides,
    std::size_t num_operators);

}  // namespace wishbone::partition
