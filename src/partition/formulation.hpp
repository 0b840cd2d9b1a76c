// ILP formulations of the partitioning problem (§4.2.1).
//
// Both encode f_v = 1 ("operator v lives on the node") with pinning via
// variable bounds (Eq. 1) and the CPU budget (Eq. 2). They differ in
// how the cut bandwidth is linearized:
//
//  - The *general* formulation introduces e_uv, e'_uv >= 0 per edge
//    with the four constraints of Eq. 3, permitting back-and-forth
//    data flow across the network: 2|E| + |V| variables.
//
//  - The *restricted* formulation (Eq. 6–7) assumes data crosses the
//    network once: f_u >= f_v on every edge, making the cut bandwidth
//    the linear expression sum (f_u - f_v) r_uv: only |V| variables.
//    This is the formulation Wishbone's prototype uses. Without its
//    budget rows it is a closure polytope, so solve_partition first
//    solves it as one min cut (partition/closure.hpp) and builds this
//    ILP only when that cut breaks a budget.
#pragma once

#include <vector>

#include "ilp/model.hpp"
#include "partition/problem.hpp"

namespace wishbone::partition {

enum class Formulation { kRestricted, kGeneral };

/// The restricted model's network load per vertex, out_bw_v - in_bw_v
/// (Eq. 7 folded per vertex): the net-budget row's coefficients, and
/// beta times them enters the objective.
[[nodiscard]] std::vector<double> net_coefficients(const PartitionProblem& p);

/// Builds the ILP for `p`. Variable 0..|V|-1 are the f_v indicators (in
/// vertex order); the general formulation appends e/e' pairs per edge.
[[nodiscard]] ilp::LinearProgram build_ilp(const PartitionProblem& p,
                                           Formulation form);

/// Decodes a solver assignment back to sides (f_v >= 0.5 -> node).
[[nodiscard]] std::vector<Side> decode_solution(
    const PartitionProblem& p, const std::vector<double>& x);

/// Rounding heuristic used to warm-start branch and bound: thresholds
/// the LP-relaxation values of f (which are monotone along edges in the
/// restricted formulation, so every threshold yields a valid cut) and
/// returns the best feasible assignment found, if any. The returned
/// vector is a full variable assignment for the *restricted* model.
[[nodiscard]] std::optional<std::vector<double>> threshold_round(
    const PartitionProblem& p, const std::vector<double>& relaxed_f);

}  // namespace wishbone::partition
