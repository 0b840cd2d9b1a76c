// Minimum-weight closure: the restricted formulation (Eq. 6–7) without
// its budget rows, solved as one s–t min cut (Picard's reduction).
//
// Rows f_u >= f_v on every edge u -> v and pins as bounds form a
// closure polytope: the node side must be closed under predecessors.
// Its constraint matrix is a network matrix, so the LP optimum is
// integral, and the best node side is a minimum-weight closure of the
// problem DAG, where vertex v weighs
//
//   w_v = alpha * cpu_v + beta * (out_bw_v - in_bw_v),
//
// exactly build_ilp's restricted objective coefficient. The network
// has |V| + 2 vertices: a source arc s -> v of capacity -w_v for each
// w_v < 0, a sink arc v -> t of capacity w_v for each w_v > 0, an
// infinite arc v -> u for each edge u -> v, an infinite source arc for
// each node pin and an infinite sink arc for each server pin. The
// vertices reachable from s in the max-flow's residual network are the
// (smallest) minimum-weight closure, and its objective is
// sum_{w_v < 0} w_v + max-flow value.
//
// When that closure also fits every budget it is optimal for the whole
// ILP: solve_partition then answers without building the ILP.
#pragma once

#include <optional>
#include <vector>

#include "partition/problem.hpp"

namespace wishbone::partition {

/// A minimum-weight closure and the max-flow that proves it optimal.
/// The flow is listed by problem element, not by network arc, so
/// check_closure_certificate can verify it from the problem alone.
struct Closure {
  std::vector<Side> sides;        ///< kNode = in the closure
  double objective = 0.0;         ///< sum of w_v over the closure
  double flow_value = 0.0;        ///< max-flow value: the cut's capacity
  std::vector<double> source_flow;  ///< on s -> v, per vertex
  std::vector<double> sink_flow;    ///< on v -> t, per vertex
  std::vector<double> edge_flow;    ///< on v -> u, per edge u -> v
};

/// Solves the min-weight closure of `p` by a Dinic max-flow on |V|+2
/// vertices whose residual network lives in the arc storage itself, so
/// a call makes O(1) allocations. Returns nullopt when the pins
/// contradict (a node-pinned vertex has a server-pinned ancestor: the
/// flow is infinite and no closure respects the pins). The result has
/// passed check_closure_certificate.
[[nodiscard]] std::optional<Closure> min_weight_closure(
    const PartitionProblem& p);

/// Verifies `c` against `p` in O(V+E) without trusting the max-flow:
/// the flow respects every capacity and is conserved at every vertex,
/// the sides form a closure that respects the pins, and the objective
/// equals sum_{w_v < 0} w_v + flow value (to 1e-9 relative to
/// sum |w_v|). Weak duality makes that equality a proof of optimality.
/// Fails with WB_ASSERT_MSG (AssertionError) on any violation.
void check_closure_certificate(const PartitionProblem& p, const Closure& c);

}  // namespace wishbone::partition
