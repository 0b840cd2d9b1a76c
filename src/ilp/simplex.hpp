// Bounded-variable revised Simplex — primal and dual — over the
// Markowitz sparse-LU basis engine with eta-file updates
// (ilp/basis_lu.hpp). Tests swap in the dense explicit-inverse engine
// as the oracle the LU engine is checked against.
//
// This is the LP engine underneath branch and bound, standing in for
// lp_solve's Simplex (§4.2.1 footnote 3). Integrality markers on the
// model are ignored here — the solver optimizes the LP relaxation over
// the current variable bounds, which is exactly what branch and bound
// needs at each node.
//
// Method notes:
//  - constraints are normalized to <= / == rows; every row gets a slack
//    variable (free slack [0, inf) for <=, fixed slack [0, 0] for ==),
//    so the all-slack basis always exists;
//  - nonbasic variables sit at one of their finite bounds; a composite
//    phase 1 drives bound violations of the basic variables to zero by
//    minimizing total infeasibility with +/-1 costs, then phase 2
//    minimizes the true objective;
//  - pricing is Dantzig: the primal loop walks a short candidate list
//    of recently attractive columns and falls back to a full scan only
//    to rebuild the list or prove optimality; the dual loop leaves on
//    the most infeasible row. Bland's rule takes over after a run of
//    degenerate pivots to guard against cycling.
//
// Warm starts: `SimplexState` keeps the factorized basis alive between
// solves. Variable bound changes never touch the constraint matrix, so
// after `set_bounds` the basis inverse stays valid and the next solve()
// re-enters from the inherited basis — typically a handful of pivots
// instead of a full cold start. The state picks the re-entry path from
// the basis it holds: bound edits leave a previously solved (or
// loaded) basis *dual*-feasible, because reduced costs do not depend on
// bounds, so a primal-infeasible solve on such a basis runs the dual
// simplex, which restores primal feasibility while preserving
// optimality. The cold crash basis (after construction or reset()) and
// any basis that fails the dual-feasibility check take composite
// phase 1 instead. A basis can also be extracted and loaded across
// states for structurally identical models (the refactorization path),
// which branch and bound and the rate search use to chain closely
// related solves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ilp/basis_lu.hpp"
#include "ilp/model.hpp"

namespace wishbone::ilp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// Dual-simplex early exit: the objective — a valid lower bound while
  /// the basis stays dual feasible — crossed the caller's cutoff, so
  /// the caller will discard (prune) this solve's node no matter where
  /// the optimum lands. Only produced when solve() is given a finite
  /// cutoff and runs the dual loop; x is not primal feasible.
  kCutoff,
};

/// SimplexState::load_basis's verdict on an inherited basis.
enum class BasisRejectReason {
  kNone,            ///< loaded
  kShape,           ///< dimension mismatch or malformed basic set
  kStructure,       ///< structure hash differs from the target model's
  kSingular,        ///< refactorization of the loaded basis failed
};

[[nodiscard]] const char* basis_reject_name(BasisRejectReason reason);

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< structural variable values (model order)
  std::size_t iterations = 0;
  std::size_t dual_iterations = 0;  ///< of `iterations`, dual-loop ones
  bool dual_reentry = false;  ///< this solve re-entered via dual simplex
};

/// Cumulative re-entry / pivot telemetry of one SimplexState (across
/// solves, like BasisEngineStats). A "re-entry" is a solve() that began
/// primal-infeasible — a warm start whose bound edits broke feasibility
/// or a cold crash basis needing repair.
struct SimplexTelemetry {
  std::size_t dual_reentries = 0;    ///< repaired by the dual simplex
  std::size_t phase1_reentries = 0;  ///< repaired by composite phase 1
  /// Warm re-entries that had to fall back to phase 1: the basis was
  /// not dual-feasible at entry, or the dual loop hit numerical trouble.
  std::size_t phase1_fallbacks = 0;
  std::size_t primal_pivots = 0;     ///< phase-1/2 pivots + bound flips
  std::size_t dual_pivots = 0;       ///< dual-loop pivots

  SimplexTelemetry& operator+=(const SimplexTelemetry& o) {
    dual_reentries += o.dual_reentries;
    phase1_reentries += o.phase1_reentries;
    phase1_fallbacks += o.phase1_fallbacks;
    primal_pivots += o.primal_pivots;
    dual_pivots += o.dual_pivots;
    return *this;
  }
};

struct SimplexOptions {
  /// Basis factorization engine. Every solve runs on kLu; the
  /// randomized differential tests select kDense as their oracle.
  BasisEngineKind engine = BasisEngineKind::kLu;
  /// LU engine: refactorize once the eta file holds this many pivots.
  /// 0 = auto (max(64, min(512, m/4)) — longer files amortize the
  /// factorization better on large sparse bases, where each eta is
  /// cheap to apply but a factorization costs a full elimination).
  std::size_t refactor_interval = 0;
};

/// A restorable snapshot of a simplex basis: the variable occupying
/// each basis row plus the bound every variable rests at when nonbasic.
/// Valid across SimplexState instances of structurally identical models
/// (same constraint rows and variable count), even when bounds or
/// coefficients differ — loading refactorizes against the new matrix.
///
/// SimplexState::extract_basis stamps each basis with the source
/// model's structure hash (sparsity pattern, see
/// LinearProgram::structure_hash), and load_basis rejects a basis whose
/// hash differs from the target's — threading a basis between
/// formulations that merely *happen* to share dimensions (a rate-search
/// probe whose preprocessing merged differently, a cache-adjacent
/// server request for a different graph) must fall back to a cold start
/// instead of installing a basis whose rows and columns mean something
/// else. A basis built by hand sets structure_hash itself.
struct Basis {
  std::vector<int> basic;              ///< size m (one variable per row)
  std::vector<std::uint8_t> at_upper;  ///< size n + m
  std::uint64_t structure_hash = 0;    ///< of the source model

  [[nodiscard]] bool empty() const { return basic.empty(); }
};

/// Persistent, re-enterable simplex working state over one model shape.
///
/// The working form (columns, slacks, costs) is built once from the
/// LinearProgram; after that, callers may tighten/relax variable bounds
/// and re-solve() repeatedly. Each solve starts from the current basis
/// (dual-simplex repair if the bound edits made it infeasible) rather than
/// from all-slacks, which is what makes the branch-and-bound sweep of
/// Fig. 6 cheap: sibling node LPs differ by one bound.
class SimplexState {
 public:
  explicit SimplexState(const LinearProgram& lp,
                        const SimplexOptions& opts = {});

  /// Replaces the bounds of structural variable `v` in the working
  /// form. The factorized basis remains valid; a nonbasic variable is
  /// snapped onto the bound it rests on.
  void set_bounds(int v, double lo, double up);

  [[nodiscard]] double lower(int v) const { return lo_[v]; }
  [[nodiscard]] double upper(int v) const { return up_[v]; }

  /// Optimizes from the current basis (warm). A primal-infeasible
  /// basis that is not the crash basis and passes dual_feasible() is
  /// repaired by the dual simplex; the crash basis, and any other
  /// basis, take composite phase 1 (a failed dual check counts as a
  /// phase1_fallback). Phase 1 then repairs any remaining primal
  /// infeasibility and phase 2 minimizes the true objective.
  ///
  /// `cutoff`: while the dual loop runs, the objective is a valid,
  /// monotonically nondecreasing lower bound on this LP's optimum —
  /// once it reaches `cutoff` the solve stops with kCutoff instead of
  /// grinding to feasibility (branch-and-bound prunes such nodes
  /// regardless of the exact optimum; LP-infeasible nodes, whose bound
  /// diverges, are cut off long before the dual-unbounded proof
  /// completes). kInf (the default) never triggers, and the phase-1
  /// path ignores the cutoff entirely — its iterates carry no bound.
  [[nodiscard]] LpSolution solve(double cutoff = kInf);

  /// Discards the basis and returns to the cold-start crash basis (all
  /// slacks basic, structural variables at their preferred bound). The
  /// next solve() repairs it by phase 1.
  void reset();

  /// Snapshot of the current basis for warm-starting a related solve.
  [[nodiscard]] Basis extract_basis() const;

  /// Installs an inherited basis and refactorizes the basis inverse;
  /// the next solve() may re-enter it by the dual simplex. This is the
  /// one place that decides whether a basis fits: the shape and
  /// structure-hash checks run in O(1) before any factorization. Returns
  /// kNone when the basis loaded; otherwise the state falls back to the
  /// cold-start basis and the result says why.
  BasisRejectReason load_basis(const Basis& basis);

  /// Reduced costs of the structural variables (model order) for the
  /// current basis (meaningful after a solve() that returned kOptimal);
  /// basic variables read 0. Computed lazily on first access — callers
  /// that never consume them (plain LP solves) pay nothing. Used by
  /// branch and bound for reduced-cost variable fixing.
  [[nodiscard]] const std::vector<double>& reduced_costs() const;

  /// The basis engine in use.
  [[nodiscard]] BasisEngineKind engine_kind() const {
    return engine_->kind();
  }
  /// Refactorization / eta-file telemetry of the basis engine.
  [[nodiscard]] const BasisEngineStats& basis_stats() const {
    return engine_->stats();
  }
  /// Cumulative re-entry / pivot telemetry (across solves).
  [[nodiscard]] const SimplexTelemetry& telemetry() const { return tel_; }

 private:
  enum class StepOutcome {
    kPivoted,
    kNoDirection,
    kUnbounded,
    kIterLimit,
    kNumericalTrouble,  ///< dual loop: factorization drift, bail out
  };

  struct DualCand {
    double theta = 0.0;  ///< dual ratio d_j / abar_j
    int j = -1;          ///< nonbasic column
    double abar = 0.0;   ///< oriented pivot-row entry
  };

  [[nodiscard]] double phase1_cost(int var) const;
  [[nodiscard]] double total_infeasibility() const;
  void recompute_basic_values();
  void compute_duals(bool phase1, std::vector<double>& y) const;
  [[nodiscard]] double reduced_cost_of(int j, bool phase1,
                                       const std::vector<double>& y) const;
  /// Entering-direction sign for column j given reduced cost d, or 0 if
  /// the column cannot improve the current phase objective.
  [[nodiscard]] double entering_sigma(int j, double d) const;
  StepOutcome iterate(bool phase1);
  /// One dual simplex pivot (leaving row: the most infeasible basic
  /// variable; entering column by the bound-flipping dual ratio test). Returns
  /// kNoDirection when primal-feasible, kUnbounded when the dual is
  /// unbounded (primal infeasible), kNumericalTrouble when the
  /// row/column pivot values disagree and the caller should fall back
  /// to phase-1 repair.
  StepOutcome dual_iterate();
  /// True when every nonbasic reduced cost has the sign its bound
  /// status requires — the dual-simplex entry condition.
  [[nodiscard]] bool dual_feasible();
  void snap_nonbasic(int j);

  const int n_struct_;
  const int m_;
  const std::uint64_t structure_hash_;  ///< of the model built from

  std::vector<double> lo_, up_, cost_, b_;
  std::vector<std::vector<std::pair<int, double>>> cols_;

  std::vector<int> basic_;
  std::vector<int> in_basis_;
  std::vector<bool> at_upper_;
  std::vector<double> x_;
  std::unique_ptr<BasisEngine> engine_;
  SimplexTelemetry tel_;

  std::vector<int> candidates_;          ///< partial-pricing list
  mutable std::vector<double> reduced_costs_;  ///< lazy, per basis
  mutable std::vector<double> y_scratch_;      ///< dual scratch (size m)
  std::vector<double> w_scratch_;        ///< pivot-direction scratch
  std::vector<std::pair<double, int>> eligible_scratch_;  ///< pricing
  std::vector<double> rho_scratch_;      ///< dual pivot row B^-T e_r
  std::vector<double> rhs_scratch_;      ///< batched bound-flip rhs
  std::vector<DualCand> dual_cands_;     ///< dual ratio-test candidates
  std::vector<int> flip_scratch_;        ///< columns flipped this pivot

  /// The basis is the crash basis: set by reset(), cleared by solve()
  /// and a successful load_basis(). Decides the re-entry path.
  bool crash_basis_ = true;
  bool basics_dirty_ = false;  ///< bound edits invalidated basic values
  mutable bool reduced_costs_valid_ = false;
  std::size_t iters_ = 0;      ///< iterations of the current solve()
  int degenerate_run_ = 0;
};

}  // namespace wishbone::ilp
