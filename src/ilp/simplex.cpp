#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace wishbone::ilp {

namespace {

constexpr std::size_t kMaxIterations = 200'000;
/// Feasibility / reduced-cost tolerance.
constexpr double kEps = 1e-7;
/// Partial pricing: the full scan keeps this many runners-up as the
/// candidate list the next pivots price first.
constexpr std::size_t kCandidateListSize = 64;

}  // namespace

const char* basis_reject_name(BasisRejectReason reason) {
  switch (reason) {
    case BasisRejectReason::kNone: return "none";
    case BasisRejectReason::kShape: return "shape";
    case BasisRejectReason::kStructure: return "structure";
    case BasisRejectReason::kSingular: return "singular";
  }
  return "?";
}

SimplexState::SimplexState(const LinearProgram& lp,
                           const SimplexOptions& opts)
    : n_struct_(lp.num_variables()),
      m_(lp.num_constraints()), structure_hash_(lp.structure_hash()) {
  const int n_total = n_struct_ + m_;
  lo_.resize(n_total);
  up_.resize(n_total);
  cost_.resize(n_total, 0.0);
  cols_.resize(n_total);
  b_.resize(m_, 0.0);
  reduced_costs_.assign(n_struct_, 0.0);
  y_scratch_.assign(m_, 0.0);

  for (int j = 0; j < n_struct_; ++j) {
    lo_[j] = lp.lower(j);
    up_[j] = lp.upper(j);
    cost_[j] = lp.objective_coeff(j);
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = lp.constraints()[i];
    const double sign = (c.rel == Relation::kGe) ? -1.0 : 1.0;
    b_[i] = sign * c.rhs;
    for (const auto& [v, coeff] : c.terms) {
      if (coeff == 0.0) continue;
      // Coalesce duplicate variable mentions within a row: the model
      // treats them additively (objective_value / max_violation), and
      // the basis engines require at most one entry per (row, column).
      // All pushes for row i happen in this pass, so a duplicate is
      // always the column's current back entry.
      auto& col = cols_[v];
      if (!col.empty() && col.back().first == i) {
        col.back().second += sign * coeff;
      } else {
        col.emplace_back(i, sign * coeff);
      }
    }
    const int slack = n_struct_ + i;
    cols_[slack].emplace_back(i, 1.0);
    lo_[slack] = 0.0;
    up_[slack] = (c.rel == Relation::kEq) ? 0.0 : kInf;
  }

  const std::size_t max_eta =
      opts.refactor_interval != 0
          ? opts.refactor_interval
          : std::max<std::size_t>(
                64, std::min<std::size_t>(512,
                                          static_cast<std::size_t>(m_) / 4));
  engine_ = make_basis_engine(opts.engine, m_, max_eta);

  reset();
}

void SimplexState::reset() {
  // Cold start: all slacks basic; structural vars crash-started at the
  // finite bound their objective coefficient prefers (a variable with
  // negative cost wants to be high), which slashes phase-2 pivots on
  // partition instances where most indicators end up at 1. Any
  // feasibility damage is repaired by phase 1.
  const int n_total = n_struct_ + m_;
  basic_.resize(m_);
  x_.assign(n_total, 0.0);
  at_upper_.assign(n_total, false);
  in_basis_.assign(n_total, -1);
  for (int j = 0; j < n_struct_; ++j) {
    const bool has_lo = std::isfinite(lo_[j]);
    const bool has_up = std::isfinite(up_[j]);
    if (has_lo && has_up && cost_[j] < 0.0) {
      x_[j] = up_[j];
      at_upper_[j] = true;
    } else if (has_lo) {
      x_[j] = lo_[j];
    } else if (has_up) {
      x_[j] = up_[j];
      at_upper_[j] = true;
    } else {
      x_[j] = 0.0;  // free variable
    }
  }
  for (int i = 0; i < m_; ++i) {
    basic_[i] = n_struct_ + i;
    in_basis_[n_struct_ + i] = i;
  }
  engine_->set_identity();  // the all-slack basis factorizes trivially
  crash_basis_ = true;
  candidates_.clear();
  recompute_basic_values();
  basics_dirty_ = false;
  reduced_costs_valid_ = false;
}

void SimplexState::snap_nonbasic(int j) {
  // A nonbasic variable must rest on one of its finite bounds (free
  // variables keep their value).
  const bool has_lo = std::isfinite(lo_[j]);
  const bool has_up = std::isfinite(up_[j]);
  double nx = x_[j];
  if (at_upper_[j] && has_up) {
    nx = up_[j];
  } else if (has_lo) {
    nx = lo_[j];
    at_upper_[j] = false;
  } else if (has_up) {
    nx = up_[j];
    at_upper_[j] = true;
  }
  if (nx != x_[j]) {
    x_[j] = nx;
    basics_dirty_ = true;
  }
}

void SimplexState::set_bounds(int v, double lo, double up) {
  WB_REQUIRE(v >= 0 && v < n_struct_,
             "set_bounds: structural variable index out of range");
  WB_REQUIRE(lo <= up, "set_bounds: lower > upper");
  if (lo_[v] == lo && up_[v] == up) return;
  lo_[v] = lo;
  up_[v] = up;
  reduced_costs_valid_ = false;
  if (in_basis_[v] < 0) snap_nonbasic(v);
  // Basic variables keep their value; if the edit pushed one outside
  // its bounds, the next solve()'s phase 1 repairs it from this basis.
}

Basis SimplexState::extract_basis() const {
  Basis b;
  b.basic = basic_;
  b.at_upper.assign(at_upper_.begin(), at_upper_.end());
  b.structure_hash = structure_hash_;
  return b;
}

BasisRejectReason SimplexState::load_basis(const Basis& basis) {
  auto reject = [this](BasisRejectReason reason) {
    reset();
    return reason;
  };
  const int n_total = n_struct_ + m_;
  if (static_cast<int>(basis.basic.size()) != m_ ||
      static_cast<int>(basis.at_upper.size()) != n_total) {
    return reject(BasisRejectReason::kShape);
  }
  // The basis must come from a structurally identical model: matching
  // dimensions alone do not make row i's slack or column j's variable
  // mean the same thing. Loading a structure-mismatched basis is never
  // *unsound* (solve() re-repairs feasibility from any basis), but it
  // installs garbage that phase 1 then grinds away from — the
  // stale-warm-basis bug this check turns into an explicit cold start.
  if (basis.structure_hash != structure_hash_) {
    return reject(BasisRejectReason::kStructure);
  }
  for (int v : basis.basic) {
    if (v < 0 || v >= n_total) return reject(BasisRejectReason::kShape);
  }
  basic_ = basis.basic;
  in_basis_.assign(n_total, -1);
  for (int i = 0; i < m_; ++i) {
    if (in_basis_[basic_[i]] >= 0) {  // duplicate column
      return reject(BasisRejectReason::kShape);
    }
    in_basis_[basic_[i]] = i;
  }
  for (int j = 0; j < n_total; ++j) at_upper_[j] = basis.at_upper[j] != 0;
  if (!engine_->factorize(cols_, basic_)) {
    return reject(BasisRejectReason::kSingular);
  }
  for (int j = 0; j < n_total; ++j) {
    if (in_basis_[j] < 0) snap_nonbasic(j);
  }
  crash_basis_ = false;
  candidates_.clear();
  recompute_basic_values();
  basics_dirty_ = false;
  reduced_costs_valid_ = false;
  return BasisRejectReason::kNone;
}

double SimplexState::phase1_cost(int var) const {
  if (x_[var] > up_[var] + kEps) return 1.0;
  if (x_[var] < lo_[var] - kEps) return -1.0;
  return 0.0;
}

double SimplexState::total_infeasibility() const {
  double s = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int v = basic_[i];
    s += std::max(0.0, x_[v] - up_[v]);
    s += std::max(0.0, lo_[v] - x_[v]);
  }
  return s;
}

void SimplexState::recompute_basic_values() {
  // xB = B^-1 * (b - sum over nonbasic j of A_j x_j)
  std::vector<double> rhs = b_;
  const int n_total = n_struct_ + m_;
  for (int j = 0; j < n_total; ++j) {
    if (in_basis_[j] >= 0 || x_[j] == 0.0) continue;
    for (const auto& [row, coeff] : cols_[j]) rhs[row] -= coeff * x_[j];
  }
  engine_->ftran_dense(rhs);
  for (int i = 0; i < m_; ++i) x_[basic_[i]] = rhs[i];
}

void SimplexState::compute_duals(bool phase1, std::vector<double>& y) const {
  // y^T = cB^T * B^-1 for the phase's cost vector (a BTRAN).
  y.assign(m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    y[i] = phase1 ? phase1_cost(basic_[i]) : cost_[basic_[i]];
  }
  engine_->btran(y);
}

double SimplexState::reduced_cost_of(int j, bool phase1,
                                     const std::vector<double>& y) const {
  double d = phase1 ? 0.0 : cost_[j];
  for (const auto& [row, coeff] : cols_[j]) d -= y[row] * coeff;
  return d;
}

double SimplexState::entering_sigma(int j, double d) const {
  const bool is_free = !std::isfinite(lo_[j]) && !std::isfinite(up_[j]);
  if (is_free) {
    if (d < -kEps) return 1.0;
    if (d > kEps) return -1.0;
    return 0.0;
  }
  if (at_upper_[j]) {
    return (d > kEps) ? -1.0 : 0.0;  // decreasing reduces cost
  }
  return (d < -kEps) ? 1.0 : 0.0;    // increasing reduces cost
}

const std::vector<double>& SimplexState::reduced_costs() const {
  // Lazy: one dual solve + pricing pass is comparable to a full simplex
  // iteration, so it only runs for callers that actually consume the
  // reduced costs (branch and bound's fixing pass), not on every node
  // LP solve.
  if (!reduced_costs_valid_) {
    compute_duals(/*phase1=*/false, y_scratch_);
    for (int j = 0; j < n_struct_; ++j) {
      reduced_costs_[j] =
          in_basis_[j] >= 0
              ? 0.0
              : reduced_cost_of(j, /*phase1=*/false, y_scratch_);
    }
    reduced_costs_valid_ = true;
  }
  return reduced_costs_;
}

LpSolution SimplexState::solve(double cutoff) {
  LpSolution sol;
  iters_ = 0;
  degenerate_run_ = 0;
  reduced_costs_valid_ = false;  // pivots will move the basis
  if (basics_dirty_) {
    recompute_basic_values();
    basics_dirty_ = false;
  }

  // Dual warm re-entry: bound edits leave reduced costs untouched, so
  // a previously solved or loaded basis is still dual-feasible and the
  // dual simplex restores primal feasibility while *preserving*
  // optimality — the textbook warm-start path for branch-and-bound
  // children, where phase-1 repair discards the dual information and
  // re-proves optimality from scratch. The crash basis carries no such
  // information: its slack basis is usually dual-feasible only by
  // accident of the crash bounds, and walking it by the dual loop costs
  // more than phase 1, so cold solves go straight to phase 1. The
  // phase-1/phase-2 loops below still run afterwards as the numerical
  // safety net and the optimality proof (both are no-ops when the dual
  // loop finished clean).
  const bool crash = crash_basis_;
  crash_basis_ = false;
  if (!crash && total_infeasibility() > kEps) {
    if (dual_feasible()) {
      ++tel_.dual_reentries;
      sol.dual_reentry = true;
      const std::size_t dual_start = iters_;
      bool abandoned = false;
      for (;;) {
        const StepOutcome oc = dual_iterate();
        if (oc == StepOutcome::kPivoted) {
          // Early bound cutoff: dual-feasible iterates price a valid
          // lower bound, and it only ever rises — past the caller's
          // cutoff this node is pruned whatever the exact optimum. The
          // slack absorbs the tolerance-level reduced-cost slips the
          // Harris ratio test admits (the bound is exact only under
          // exact dual feasibility), so a borderline node is never cut
          // off on bound noise alone.
          if (std::isfinite(cutoff)) {
            const double slack =
                10.0 * kEps * (1.0 + std::fabs(cutoff));
            double z = 0.0;
            for (int j = 0; j < n_struct_; ++j) z += cost_[j] * x_[j];
            if (z >= cutoff + slack) {
              sol.iterations = iters_;
              sol.dual_iterations = iters_ - dual_start;
              sol.objective = z;
              sol.status = SolveStatus::kCutoff;
              return sol;
            }
          }
          continue;
        }
        if (oc == StepOutcome::kNoDirection) break;  // primal feasible
        if (oc == StepOutcome::kNumericalTrouble) {
          abandoned = true;  // refactorized; phase 1 takes over
          break;
        }
        sol.iterations = iters_;
        sol.dual_iterations = iters_ - dual_start;
        if (oc == StepOutcome::kUnbounded) {
          // Dual unbounded along the violated row: no admissible
          // entering column can absorb it — the primal is infeasible.
          sol.status = SolveStatus::kInfeasible;
        } else {
          sol.status = SolveStatus::kIterationLimit;
        }
        return sol;
      }
      sol.dual_iterations = iters_ - dual_start;
      if (abandoned) ++tel_.phase1_fallbacks;
      degenerate_run_ = 0;
      candidates_.clear();  // dual pivots staled the primal price list
    } else {
      // Not dual-feasible at entry (cost-perturbed or foreign basis):
      // composite phase 1 is the only repair path.
      ++tel_.phase1_fallbacks;
    }
  }
  if (total_infeasibility() > kEps) ++tel_.phase1_reentries;

  // Phase 1: drive basic-variable bound violations to zero, starting
  // from whatever basis this state currently holds (warm re-entry after
  // bound edits, an inherited basis, or the cold crash basis).
  while (total_infeasibility() > kEps) {
    const StepOutcome oc = iterate(/*phase1=*/true);
    if (oc == StepOutcome::kNoDirection) {
      sol.status = SolveStatus::kInfeasible;
      sol.iterations = iters_;
      return sol;
    }
    if (oc == StepOutcome::kIterLimit) {
      sol.status = SolveStatus::kIterationLimit;
      sol.iterations = iters_;
      return sol;
    }
    if (oc == StepOutcome::kUnbounded) {
      // Phase-1 objective is bounded below; an unblocked ray means
      // numerical trouble. Report as an iteration failure.
      sol.status = SolveStatus::kIterationLimit;
      sol.iterations = iters_;
      return sol;
    }
  }
  candidates_.clear();  // phase-1 scores are stale for phase 2
  // Phase 2: optimize the true objective.
  for (;;) {
    const StepOutcome oc = iterate(/*phase1=*/false);
    if (oc == StepOutcome::kNoDirection) break;  // optimal
    if (oc == StepOutcome::kUnbounded) {
      sol.status = SolveStatus::kUnbounded;
      sol.iterations = iters_;
      return sol;
    }
    if (oc == StepOutcome::kIterLimit) {
      sol.status = SolveStatus::kIterationLimit;
      sol.iterations = iters_;
      return sol;
    }
  }
  sol.status = SolveStatus::kOptimal;
  sol.iterations = iters_;
  sol.x.assign(x_.begin(), x_.begin() + n_struct_);
  sol.objective = 0.0;
  for (int j = 0; j < n_struct_; ++j) sol.objective += cost_[j] * x_[j];
  return sol;
}

SimplexState::StepOutcome SimplexState::iterate(bool phase1) {
  if (iters_ >= kMaxIterations) return StepOutcome::kIterLimit;
  ++iters_;

  compute_duals(phase1, y_scratch_);
  const std::vector<double>& y = y_scratch_;

  // Pricing: find an entering variable. The candidate list from the
  // last full scan is tried first; a full scan runs only when the list
  // is dry (and doubles as the optimality proof when it finds nothing).
  // Bland's rule (first eligible by index) takes over after a run of
  // degenerate steps.
  const bool bland = degenerate_run_ >= 50;
  const int n_total = n_struct_ + m_;
  int enter = -1;
  double enter_sigma = 0.0;
  // Dantzig scores: -|d|, smaller is better, and only a score below
  // -eps (a reduced cost past the tolerance) is worth a pivot.
  double best_score = -kEps;

  if (bland) {
    for (int j = 0; j < n_total; ++j) {
      if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
      const double d = reduced_cost_of(j, phase1, y);
      const double sigma = entering_sigma(j, d);
      if (sigma != 0.0) {
        enter = j;
        enter_sigma = sigma;
        break;
      }
    }
  } else {
    if (!candidates_.empty()) {
      for (int j : candidates_) {
        if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
        const double d = reduced_cost_of(j, phase1, y);
        const double sigma = entering_sigma(j, d);
        if (sigma == 0.0) continue;
        const double score = -std::fabs(d);
        if (score < best_score) {
          best_score = score;
          enter = j;
          enter_sigma = sigma;
        }
      }
    }
    if (enter == -1) {
      // Full pricing scan; rebuild the candidate list from the runners-
      // up so the next pivots price only this short list.
      std::vector<std::pair<double, int>>& eligible = eligible_scratch_;
      eligible.clear();  // (score, j)
      for (int j = 0; j < n_total; ++j) {
        if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
        const double d = reduced_cost_of(j, phase1, y);
        const double sigma = entering_sigma(j, d);
        if (sigma == 0.0) continue;
        const double score = -std::fabs(d);
        if (score < best_score) {
          best_score = score;
          enter = j;
          enter_sigma = sigma;
        }
        eligible.emplace_back(score, j);
      }
      candidates_.clear();
      if (enter != -1) {
        const std::size_t keep = std::min(kCandidateListSize, eligible.size());
        std::partial_sort(eligible.begin(), eligible.begin() + keep,
                          eligible.end());
        for (std::size_t i = 0; i < keep; ++i) {
          if (eligible[i].second != enter) {
            candidates_.push_back(eligible[i].second);
          }
        }
      }
    }
  }
  if (enter == -1) return StepOutcome::kNoDirection;

  // Direction through the basis: w = B^-1 * A_enter (an FTRAN).
  std::vector<double>& w = w_scratch_;
  engine_->ftran(cols_[enter], w);

  // Ratio test. The entering variable moves by t >= 0 in direction
  // enter_sigma; basic k changes at rate -enter_sigma * w[k].
  double t_max = kInf;
  int leave_row = -1;
  double leave_bound = 0.0;
  bool bound_flip = false;
  const double span = up_[enter] - lo_[enter];
  if (std::isfinite(span)) {
    t_max = span;
    bound_flip = true;
  }
  for (int k = 0; k < m_; ++k) {
    const double delta = enter_sigma * w[k];  // rate of decrease of xB_k
    if (std::fabs(delta) < kPivotEps) continue;
    const int v = basic_[k];
    const double xv = x_[v];
    double t = kInf;
    double bound = 0.0;
    if (phase1 && xv > up_[v] + kEps) {
      // Infeasible above: only a downward move blocks, at the upper
      // bound (first slope change of the phase-1 cost).
      if (delta > 0) {
        bound = up_[v];
        t = (xv - bound) / delta;
      }
    } else if (phase1 && xv < lo_[v] - kEps) {
      if (delta < 0) {
        bound = lo_[v];
        t = (xv - bound) / delta;
      }
    } else {
      if (delta > 0) {
        if (!std::isfinite(lo_[v])) continue;
        bound = lo_[v];
        t = (xv - bound) / delta;
      } else {
        if (!std::isfinite(up_[v])) continue;
        bound = up_[v];
        t = (xv - bound) / delta;
      }
    }
    t = std::max(t, 0.0);  // numerical: clamp tiny negatives
    // Strict improvement takes the block; on (near-)ties prefer the
    // smallest leaving variable index for determinism and as the
    // Bland anti-cycling tie-break.
    const bool tie = leave_row >= 0 && std::fabs(t - t_max) <= kEps;
    if (t < t_max - kPivotEps ||
        (tie && v < basic_[leave_row])) {
      t_max = t;
      leave_row = k;
      leave_bound = bound;
      bound_flip = false;
    }
  }

  if (!std::isfinite(t_max)) return StepOutcome::kUnbounded;

  degenerate_run_ = (t_max <= kEps) ? degenerate_run_ + 1 : 0;

  // Apply the step.
  x_[enter] += enter_sigma * t_max;
  for (int k = 0; k < m_; ++k) {
    x_[basic_[k]] -= enter_sigma * t_max * w[k];
  }
  if (bound_flip) {
    at_upper_[enter] = !at_upper_[enter];
    // Snap exactly onto the bound to stop drift.
    x_[enter] = at_upper_[enter] ? up_[enter] : lo_[enter];
    ++tel_.primal_pivots;
    return StepOutcome::kPivoted;
  }

  WB_ASSERT(leave_row >= 0);
  const int leaving = basic_[leave_row];
  x_[leaving] = leave_bound;
  at_upper_[leaving] =
      std::isfinite(up_[leaving]) && leave_bound == up_[leaving];
  in_basis_[leaving] = -1;
  basic_[leave_row] = enter;
  in_basis_[enter] = leave_row;

  // Absorb the pivot into the basis engine (dense: elementary row
  // update; LU: append an eta vector). The engine declines when its
  // eta file is full or the pivot is too unstable to chain — then a
  // fresh factorization of the *new* basis replaces the whole file.
  WB_ASSERT_MSG(std::fabs(w[leave_row]) > kPivotEps,
                "degenerate pivot");
  if (!engine_->update(leave_row, w)) {
    if (!engine_->factorize(cols_, basic_)) {
      // The ratio test admitted this pivot, so the new basis is
      // singular only through accumulated floating-point damage. A
      // failed factorization leaves the engine's factors half-built;
      // reset() restores a coherent cold state so a caller that
      // re-enters this SimplexState gets a valid (cold) solve instead
      // of silent garbage, and this solve reports the failure.
      reset();
      return StepOutcome::kIterLimit;
    }
  }

  ++tel_.primal_pivots;
  // Periodic refresh to contain floating-point drift.
  if (iters_ % 512 == 0) recompute_basic_values();
  return StepOutcome::kPivoted;
}

bool SimplexState::dual_feasible() {
  // Every nonbasic reduced cost must carry the sign its bound status
  // requires for a *minimization*: at-lower columns d >= 0 (raising
  // them cannot improve), at-upper d <= 0, free columns d == 0 — all
  // within the reduced-cost tolerance. Bound edits never change
  // reduced costs, so a basis that last solved to optimality passes
  // — *except* that replaying a different subtree's bound deltas can
  // leave a boxed nonbasic parked at the wrong bound for its reduced
  // cost (e.g. a variable fixed-then-unfixed along the chain). Those
  // are not genuine dual infeasibilities: flipping the variable to its
  // other finite bound restores the sign condition without touching
  // the basis or the duals, so repair them here instead of punting the
  // whole re-entry to phase 1. Only a free column (or one whose
  // opposite bound is infinite) with a wrong-signed reduced cost
  // forces the fallback.
  compute_duals(/*phase1=*/false, y_scratch_);
  const int n_total = n_struct_ + m_;
  bool ok = true;
  bool flipped = false;
  for (int j = 0; j < n_total; ++j) {
    if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
    const double d = reduced_cost_of(j, /*phase1=*/false, y_scratch_);
    const bool is_free = !std::isfinite(lo_[j]) && !std::isfinite(up_[j]);
    if (is_free) {
      if (std::fabs(d) > kEps) ok = false;
    } else if (at_upper_[j]) {
      if (d > kEps) {
        if (!std::isfinite(lo_[j])) {
          ok = false;
        } else {
          x_[j] = lo_[j];
          at_upper_[j] = false;
          flipped = true;
        }
      }
    } else {
      if (d < -kEps) {
        if (!std::isfinite(up_[j])) {
          ok = false;
        } else {
          x_[j] = up_[j];
          at_upper_[j] = true;
          flipped = true;
        }
      }
    }
  }
  // Flips move nonbasic values, so the basic values must be re-derived
  // — also on the failure path, where phase 1 takes over from the
  // (legal) flipped point.
  if (flipped) recompute_basic_values();
  return ok;
}

SimplexState::StepOutcome SimplexState::dual_iterate() {
  if (iters_ >= kMaxIterations) return StepOutcome::kIterLimit;
  ++iters_;

  // --- Leaving row: the largest bound violation (Bland regime:
  // smallest variable index, mirroring the primal anti-cycling guard).
  const bool bland = degenerate_run_ >= 50;
  int leave_row = -1;
  double worst = 0.0;
  double dir = 0.0;  // +1: violated above upper; -1: below lower
  for (int k = 0; k < m_; ++k) {
    const int v = basic_[k];
    const double above = x_[v] - up_[v];
    const double below = lo_[v] - x_[v];
    const double infeas = std::max(above, below);
    if (infeas <= kEps) continue;
    if (bland) {
      if (leave_row < 0 || v < basic_[leave_row]) {
        leave_row = k;
        dir = (above >= below) ? 1.0 : -1.0;
      }
    } else {
      if (leave_row < 0 || infeas > worst) {
        worst = infeas;
        leave_row = k;
        dir = (above >= below) ? 1.0 : -1.0;
      }
    }
  }
  if (leave_row < 0) return StepOutcome::kNoDirection;  // primal feasible

  const int leaving = basic_[leave_row];
  const double target = (dir > 0.0) ? up_[leaving] : lo_[leaving];

  // --- Pivot row rho = B^-T e_r and current duals (for the ratio
  // test's reduced costs).
  engine_->btran_unit(leave_row, rho_scratch_);
  compute_duals(/*phase1=*/false, y_scratch_);
  const std::vector<double>& rho = rho_scratch_;
  const std::vector<double>& y = y_scratch_;

  // --- Dual ratio test. Orient the pivot row toward the violation:
  // abar_j = dir * (rho . A_j). A nonbasic column is an admissible
  // entering candidate when moving it off its bound pulls the leaving
  // variable toward `target`: at-lower columns need abar > 0, at-upper
  // abar < 0, free columns qualify either way. theta_j = d_j / abar_j
  // (>= 0 under dual feasibility) is the dual step length at which
  // column j's reduced cost crosses zero — the smallest theta keeps
  // every other reduced cost sign-correct.
  const int n_total = n_struct_ + m_;
  dual_cands_.clear();
  for (int j = 0; j < n_total; ++j) {
    if (in_basis_[j] >= 0 || lo_[j] == up_[j]) continue;
    double alpha = 0.0;
    for (const auto& [row, coeff] : cols_[j]) alpha += rho[row] * coeff;
    const double abar = dir * alpha;
    if (std::fabs(abar) <= kPivotEps) continue;
    const bool is_free = !std::isfinite(lo_[j]) && !std::isfinite(up_[j]);
    if (!is_free && (at_upper_[j] ? (abar > 0.0) : (abar < 0.0))) continue;
    const double d = reduced_cost_of(j, /*phase1=*/false, y);
    DualCand c;
    c.theta = std::max(d / abar, 0.0);  // clamp tolerance-level negatives
    c.j = j;
    c.abar = abar;
    dual_cands_.push_back(c);
  }
  if (dual_cands_.empty()) {
    // No column can absorb the violated row: the dual is unbounded
    // along e_r, i.e. the primal is infeasible.
    return StepOutcome::kUnbounded;
  }
  std::sort(dual_cands_.begin(), dual_cands_.end(),
            [](const DualCand& a, const DualCand& b) {
              if (a.theta != b.theta) return a.theta < b.theta;
              return a.j < b.j;  // deterministic, Bland-style tie-break
            });

  // --- Bound-flip ratio test: a candidate whose whole span absorbs
  // less violation than remains can jump to its other bound instead of
  // entering; the dual step then passes its theta (its reduced cost
  // changes sign, which the flip makes consistent) and the walk
  // continues with the next candidate. Skipped in the Bland regime —
  // flips are the kind of extra move the anti-cycling argument
  // excludes.
  double delta_rem = std::fabs(x_[leaving] - target);
  flip_scratch_.clear();
  std::size_t pick = 0;
  if (!bland) {
    while (pick + 1 < dual_cands_.size()) {
      const DualCand& c = dual_cands_[pick];
      const double span = up_[c.j] - lo_[c.j];
      if (!std::isfinite(span)) break;
      const double absorb = std::fabs(c.abar) * span;
      if (absorb >= delta_rem - kEps) break;
      flip_scratch_.push_back(c.j);
      delta_rem -= absorb;
      ++pick;
    }
  }
  // Harris two-pass ratio test over the remaining candidates. Pass 1:
  // the largest dual step that keeps every reduced cost within the
  // tolerance, theta_H = min_q (d_q + eps)/|abar_q| — a candidate with
  // a tiny pivot element hardly constrains it. Pass 2: among the
  // candidates whose own theta fits under theta_H, enter the one with
  // the largest |abar|. The payoff on this massively degenerate model
  // is the primal step t = infeas/alpha_q: the strict-minimum rule
  // breaks its many theta ties by index and routinely lands on a
  // near-pivot_eps element, whose huge t knocks a dozen other basics
  // out of their bounds (measured ~12 follow-on violations per entry
  // violation); maximizing |abar| keeps t small and the repair local.
  // The tolerance-level reduced-cost slips this admits are exactly the
  // ones dual_feasible() already tolerates, and later iterations clamp
  // them to degenerate steps. Bland regime keeps the strict minimum
  // for the anti-cycling argument.
  std::size_t chosen_ix = pick;
  if (!bland) {
    double theta_h = kInf;
    for (std::size_t q = pick; q < dual_cands_.size(); ++q) {
      const double cap =
          dual_cands_[q].theta + kEps / std::fabs(dual_cands_[q].abar);
      if (cap < theta_h) theta_h = cap;
    }
    double best_abar = 0.0;
    for (std::size_t q = pick; q < dual_cands_.size(); ++q) {
      if (dual_cands_[q].theta > theta_h) continue;
      const double mag = std::fabs(dual_cands_[q].abar);
      if (mag > best_abar) {
        best_abar = mag;
        chosen_ix = q;
      }
    }
  }
  const DualCand chosen = dual_cands_[chosen_ix];
  const int enter = chosen.j;

  if (!flip_scratch_.empty()) {
    // Apply every flip with one accumulated FTRAN:
    // x_B -= B^-1 (sum_j A_j dx_j).
    rhs_scratch_.assign(m_, 0.0);
    for (int j : flip_scratch_) {
      const double nx = at_upper_[j] ? lo_[j] : up_[j];
      const double dx = nx - x_[j];
      at_upper_[j] = !at_upper_[j];
      x_[j] = nx;
      for (const auto& [row, coeff] : cols_[j]) {
        rhs_scratch_[row] += coeff * dx;
      }
    }
    engine_->ftran_dense(rhs_scratch_);
    for (int i = 0; i < m_; ++i) x_[basic_[i]] -= rhs_scratch_[i];
  }

  // --- Entering direction w = B^-1 A_enter. Its leave_row entry must
  // agree with the row-computed alpha (same sign, non-tiny): a
  // disagreement means the factorization has drifted too far to trust
  // this pivot — rebuild it and let the caller fall back to phase-1
  // repair.
  std::vector<double>& w = w_scratch_;
  engine_->ftran(cols_[enter], w);
  const double alpha_q = w[leave_row];
  if (std::fabs(alpha_q) <= kPivotEps ||
      alpha_q * (dir * chosen.abar) <= 0.0) {
    if (!engine_->factorize(cols_, basic_)) {
      reset();
      return StepOutcome::kIterLimit;
    }
    recompute_basic_values();
    return StepOutcome::kNumericalTrouble;
  }

  degenerate_run_ = (chosen.theta <= kEps && flip_scratch_.empty())
                        ? degenerate_run_ + 1
                        : 0;

  // --- Pivot: move the entering column until the leaving variable
  // lands exactly on its violated bound.
  const double t = (x_[leaving] - target) / alpha_q;
  x_[enter] += t;
  for (int k = 0; k < m_; ++k) x_[basic_[k]] -= t * w[k];
  x_[leaving] = target;  // snap exactly to stop drift
  at_upper_[leaving] = (dir > 0.0);
  in_basis_[leaving] = -1;
  basic_[leave_row] = enter;
  in_basis_[enter] = leave_row;

  if (!engine_->update(leave_row, w)) {
    if (!engine_->factorize(cols_, basic_)) {
      // Same contract as the primal loop: a post-pivot singular
      // factorization leaves only the cold reset as a coherent state.
      reset();
      return StepOutcome::kIterLimit;
    }
  }
  ++tel_.dual_pivots;
  if (iters_ % 512 == 0) recompute_basic_values();
  return StepOutcome::kPivoted;
}

}  // namespace wishbone::ilp
