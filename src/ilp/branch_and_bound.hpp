// Branch and bound over the Simplex LP relaxation: the integer half of
// the lp_solve replacement (§4.2.1 footnote 3: "branch-and-bound to
// solve integer-constrained problems ... Simplex to solve linear
// programming problems").
//
// The solver records an incumbent timeline because Fig. 6 plots two
// different quantities: the time at which the optimal solution was
// *discovered* (first incumbent equal to the final optimum) and the
// time needed to *prove* optimality (search exhausted / gap closed).
//
// Incremental state: one SimplexState is shared by every node LP. A
// node stores only the chain of bound deltas back to the root (shared
// ancestry, so a node costs O(1) extra memory instead of two
// n-vectors), the search replays the delta chain onto the state, and
// each LP re-solve warm-starts from the basis the previous node left
// behind — sibling LPs differ by a single bound, so dual-simplex repair
// is a few pivots. Reduced-cost fixing pins 0/1 indicators whose
// reduced cost already closes the incumbent gap, shrinking the tree.
//
// The search is one serial best-first loop on the calling thread
// (ilp/branch_and_bound.cpp); callers that want parallelism run
// independent solves side by side, as the partition server's workers do.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "obs/trace.hpp"

namespace wishbone::ilp {

struct MipOptions {
  double time_limit_s = kInf;   ///< wall-clock budget
  std::size_t max_nodes = 1'000'000;
  SimplexOptions lp;            ///< options for per-node LP solves
  /// Optional primal heuristic: called with the fractional LP solution
  /// of every node; may return a candidate integral assignment, which
  /// is installed as the incumbent when it is feasible and improving.
  /// Lets callers plug domain rounding (the partitioner's threshold
  /// cut) without an extra LP solve.
  std::function<std::optional<std::vector<double>>(
      const std::vector<double>&)>
      rounding_hook;
  /// Warm-started node LPs: reuse one SimplexState for every node,
  /// re-entering from the previous node's basis. false restores the
  /// seed behavior (every node LP cold-starts from the crash basis) —
  /// kept for A/B measurement and the warm-vs-cold property tests.
  bool warm_lp = true;
  /// Fix integer variables whose reduced cost proves no improving
  /// solution moves them off their bound (requires an incumbent).
  bool reduced_cost_fixing = true;
  /// Feasibility mode: stop after the node that installs the first
  /// incumbent (rounding hook or integral LP). The run reads as
  /// censored (kIterationLimit) unless that node left the heap empty.
  /// The walk up to that node is the full run's, so the first
  /// IncumbentRecord is the same.
  bool stop_at_first_incumbent = false;
  /// Optional basis inherited from a structurally identical solve (e.g.
  /// the previous rate-search probe), loaded into the SimplexState
  /// before the root LP. A basis load_basis rejects means a cold start.
  std::optional<Basis> warm_basis;
  /// Leftover of the retired parallel search: the search is serial and
  /// BranchAndBound::solve rejects any value but 1. The field stays only
  /// because the e2e benchmark (bench/e2e/workloads.cpp) still assigns
  /// `threads = 1` four times; delete it together with those lines.
  std::size_t threads = 1;
  /// Request-scoped trace context (obs/trace.hpp). Unsampled (the
  /// default) costs nothing; sampled contexts make the search record
  /// bnb.search / bnb.node / basis.load spans parented under the
  /// caller's span. Timestamps only — never affects the search.
  obs::TraceContext trace;
};

struct IncumbentRecord {
  double time_s = 0.0;    ///< seconds since solve() began
  double objective = 0.0;
  std::size_t node = 0;   ///< B&B node that produced it (from 1; 0 = none)
};

/// Counters of one branch-and-bound run; callers that sweep many solves
/// (the Fig. 6 bench) sum them with +=.
struct SearchTelemetry {
  std::size_t nodes_explored = 0;
  std::size_t lp_iterations = 0;
  std::size_t vars_fixed_by_reduced_cost = 0;
  /// Basis-engine telemetry of the search's SimplexState: how often
  /// the basis was refactorized, how many pivots the eta file
  /// absorbed, and its peak length.
  std::size_t basis_refactorizations = 0;
  std::size_t eta_updates = 0;
  std::size_t eta_len_peak = 0;
  /// Re-entry telemetry of the search's SimplexState: how node
  /// re-solves restored feasibility (dual simplex vs composite phase
  /// 1), how often a warm re-entry fell back to phase 1, and the primal
  /// / dual pivot counts.
  SimplexTelemetry simplex;

  /// Sums every counter; eta_len_peak takes the maximum.
  SearchTelemetry& operator+=(const SearchTelemetry& o) {
    nodes_explored += o.nodes_explored;
    lp_iterations += o.lp_iterations;
    vars_fixed_by_reduced_cost += o.vars_fixed_by_reduced_cost;
    basis_refactorizations += o.basis_refactorizations;
    eta_updates += o.eta_updates;
    eta_len_peak = std::max(eta_len_peak, o.eta_len_peak);
    simplex += o.simplex;
    return *this;
  }
};

struct MipResult {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;          ///< incumbent objective (if any)
  std::vector<double> x;           ///< incumbent assignment
  bool has_incumbent = false;
  double best_bound = -kInf;       ///< proven lower bound at termination
  /// The headline counters; both repeat their fields in `total`.
  std::size_t nodes_explored = 0;
  std::size_t lp_iterations = 0;

  // Fig. 6 instrumentation:
  double time_to_first_incumbent = -1.0;  ///< -1 if none found
  double time_to_best_incumbent = -1.0;   ///< when the optimum appeared
  double time_total = 0.0;                ///< includes the proof phase
  std::vector<IncumbentRecord> incumbents;

  /// Basis of the search's simplex state at termination; thread it into
  /// MipOptions::warm_basis of the next structurally identical solve.
  Basis final_basis;
  /// The verdict of load_basis on MipOptions::warm_basis,
  /// read three ways. warm_basis_loaded: the basis loaded (false = the
  /// solve fell back to a cold basis, or none was supplied).
  /// warm_basis_rejected: the basis came from a model of another shape
  /// or constraint structure (kShape / kStructure), as opposed to a
  /// fitting basis that failed to factorize (kSingular).
  /// warm_basis_reject_reason: why it did not load (kNone when it loaded
  /// or none was supplied); the serve cache breaks its
  /// warm_basis_rejected counter out by this reason.
  bool warm_basis_loaded = false;
  bool warm_basis_rejected = false;
  BasisRejectReason warm_basis_reject_reason = BasisRejectReason::kNone;

  /// Every counter of the search.
  SearchTelemetry total;

  /// Absolute optimality gap at termination (0 when proved optimal).
  [[nodiscard]] double gap() const {
    return has_incumbent ? objective - best_bound : kInf;
  }
};

class BranchAndBound {
 public:
  /// Solves the MIP on the calling thread. The model is left untouched:
  /// node bounds live in the search's own SimplexState, never written
  /// back into `lp`. Throws util::ContractError unless opts.threads == 1.
  [[nodiscard]] MipResult solve(const LinearProgram& lp,
                                const MipOptions& opts = {}) const;
};

}  // namespace wishbone::ilp
