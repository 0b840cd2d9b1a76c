#include <gtest/gtest.h>

#include <random>

#include "ilp/simplex.hpp"

using namespace wishbone::ilp;

namespace {

Constraint make(std::vector<std::pair<int, double>> terms, Relation rel,
                double rhs) {
  Constraint c;
  c.terms = std::move(terms);
  c.rel = rel;
  c.rhs = rhs;
  return c;
}

}  // namespace

TEST(Simplex, UnconstrainedBoxMinimum) {
  // min 2x - 3y, 0<=x<=4, 0<=y<=5  ->  x=0, y=5, obj=-15.
  LinearProgram lp;
  (void)lp.add_variable("x", 0.0, 4.0, 2.0, false);
  (void)lp.add_variable("y", 0.0, 5.0, -3.0, false);
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -15.0, 1e-6);
  EXPECT_NEAR(sol.x[0], 0.0, 1e-6);
  EXPECT_NEAR(sol.x[1], 5.0, 1e-6);
}

TEST(Simplex, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  (min of the negation).
  // Optimum: x=2, y=6, obj=36.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -3.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -5.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kLe, 4.0));
  lp.add_constraint(make({{y, 2.0}}, Relation::kLe, 12.0));
  lp.add_constraint(make({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0));
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-6);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-6);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-6);
}

TEST(Simplex, GeConstraintNeedsPhaseOne) {
  // min x s.t. x >= 3, 0 <= x <= 10.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 10.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kGe, 3.0));
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + y == 4, x <= 3, y <= 3.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 3.0, 1.0, false);
  const int y = lp.add_variable("y", 0.0, 3.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kEq, 4.0));
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-6);
  EXPECT_NEAR(sol.x[0] + sol.x[1], 4.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot both hold.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 10.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kLe, 1.0));
  lp.add_constraint(make({{x, 1.0}}, Relation::kGe, 2.0));
  EXPECT_EQ(SimplexState(lp).solve().status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleBoundsVsEquality) {
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 1.0, 0.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kEq, 5.0));
  EXPECT_EQ(SimplexState(lp).solve().status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x with x >= 0 unbounded above.
  LinearProgram lp;
  (void)lp.add_variable("x", 0.0, kInf, -1.0, false);
  EXPECT_EQ(SimplexState(lp).solve().status, SolveStatus::kUnbounded);
}

TEST(Simplex, FixedVariablesRespected) {
  LinearProgram lp;
  const int x = lp.add_variable("x", 2.0, 2.0, 1.0, false);
  const int y = lp.add_variable("y", 0.0, 5.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kGe, 4.0));
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-6);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with -5<=x<=-1, -3<=y<=7, x+y >= -6.
  LinearProgram lp;
  const int x = lp.add_variable("x", -5.0, -1.0, 1.0, false);
  const int y = lp.add_variable("y", -3.0, 7.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kGe, -6.0));
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -6.0, 1e-6);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -1.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -1.0, false);
  for (int k = 1; k <= 6; ++k) {
    lp.add_constraint(
        make({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}},
             Relation::kLe, 4.0 * k));
  }
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-6);
}

// Property test: on random partition-shaped LPs the solution must be
// feasible and no sampled feasible point may beat it.
class SimplexRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom, OptimalBeatsRandomFeasiblePoints) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> cost(-2.0, 2.0);
  std::uniform_real_distribution<double> coeff(0.1, 1.0);

  const int n = 6;
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    (void)lp.add_variable("x" + std::to_string(j), 0.0, 1.0, cost(rng),
                          false);
  }
  // A couple of knapsack-style rows keep the box from being trivial.
  for (int r = 0; r < 3; ++r) {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, coeff(rng));
    c.rel = Relation::kLe;
    c.rhs = 1.5;
    lp.add_constraint(c);
  }
  const auto sol = SimplexState(lp).solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_LE(lp.max_violation(sol.x), 1e-6);

  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(n);
    for (auto& v : x) v = u(rng) * 0.3;  // keep within the knapsacks
    if (lp.max_violation(x) > 1e-9) continue;
    EXPECT_GE(lp.objective_value(x), sol.objective - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Dual warm re-entry: chosen by the state from the basis it holds
// ---------------------------------------------------------------------------

namespace {

// The classic two-variable LP above (max 3x+5y; optimum x=2, y=6).
LinearProgram classic_lp() {
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -3.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -5.0, false);
  lp.add_constraint(make({{x, 1.0}}, Relation::kLe, 4.0));
  lp.add_constraint(make({{y, 2.0}}, Relation::kLe, 12.0));
  lp.add_constraint(make({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0));
  return lp;
}

}  // namespace

TEST(SimplexDual, ReentryAfterBoundTightenMatchesPhaseOne) {
  const LinearProgram lp = classic_lp();

  SimplexState dual_state(lp, SimplexOptions{});
  const auto cold = dual_state.solve();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(cold.objective, -36.0, 1e-6);
  // The crash basis (origin, slacks basic) is primal feasible here, so
  // the cold solve is not a re-entry of any kind.
  EXPECT_EQ(dual_state.telemetry().dual_reentries, 0u);
  EXPECT_EQ(dual_state.telemetry().phase1_reentries, 0u);

  // Tighten y's upper bound below its basic value (6): the basis is now
  // primal infeasible but still dual feasible -> dual re-entry.
  dual_state.set_bounds(1, 0.0, 4.0);
  const auto warm = dual_state.solve();
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.dual_reentry);
  EXPECT_GT(warm.dual_iterations, 0u);
  EXPECT_EQ(dual_state.telemetry().dual_reentries, 1u);
  EXPECT_EQ(dual_state.telemetry().phase1_fallbacks, 0u);

  // A fresh state solved on the edited bounds starts from the crash
  // basis, so it takes phase 1 — and must agree on the optimum.
  LinearProgram edited = lp;
  edited.set_bounds(1, 0.0, 4.0);
  SimplexState p1_state(edited, SimplexOptions{});
  const auto p1 = p1_state.solve();
  ASSERT_EQ(p1.status, SolveStatus::kOptimal);
  EXPECT_FALSE(p1.dual_reentry);
  EXPECT_NEAR(warm.objective, p1.objective, 1e-6);
  EXPECT_NEAR(warm.objective, -30.0, 1e-6);  // x=10/3, y=4
}

TEST(SimplexDual, RatioTestSurvivesDegenerateTies) {
  // Six scaled copies of x+y<=4 meet at the optimal vertex, so the dual
  // ratio test after the bound edit sees a wall of tied candidates.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, kInf, -1.0, false);
  const int y = lp.add_variable("y", 0.0, kInf, -1.0, false);
  for (int k = 1; k <= 6; ++k) {
    lp.add_constraint(
        make({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}},
             Relation::kLe, 4.0 * k));
  }
  SimplexState state(lp, SimplexOptions{});
  ASSERT_EQ(state.solve().status, SolveStatus::kOptimal);

  state.set_bounds(x, 0.0, 1.0);
  state.set_bounds(y, 0.0, 2.0);
  const auto sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -3.0, 1e-6);  // x=1, y=2
  EXPECT_EQ(state.telemetry().phase1_fallbacks, 0u);
}

TEST(SimplexDual, ReentryDetectsInfeasibleViaDualUnbounded) {
  // x+y >= 3 with generous boxes, then shrink both boxes so the row can
  // no longer be satisfied. The dual loop must prove primal
  // infeasibility (dual unboundedness), not spin or mislabel it.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 2.0, 1.0, false);
  const int y = lp.add_variable("y", 0.0, 2.0, 1.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kGe, 3.0));
  SimplexState state(lp, SimplexOptions{});
  const auto first = state.solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 3.0, 1e-6);

  state.set_bounds(x, 0.0, 1.0);
  state.set_bounds(y, 0.0, 1.0);
  EXPECT_EQ(state.solve().status, SolveStatus::kInfeasible);
  EXPECT_EQ(state.telemetry().phase1_fallbacks, 0u);
}

TEST(SimplexDual, CutoffStopsDualLoopEarly) {
  const LinearProgram lp = classic_lp();
  SimplexState state(lp, SimplexOptions{});
  ASSERT_EQ(state.solve().status, SolveStatus::kOptimal);

  // After the edit the optimum rises from -36 to -30; a cutoff of -34
  // lies strictly between, so the dual loop's monotone lower bound must
  // cross it and report kCutoff instead of finishing the re-solve.
  state.set_bounds(1, 0.0, 4.0);
  const auto cut = state.solve(-34.0);
  ASSERT_EQ(cut.status, SolveStatus::kCutoff);
  EXPECT_GE(cut.objective, -34.0 - 1e-5);

  // kCutoff leaves the state mid-repair; a later un-cutoff solve must
  // still recover the true optimum.
  const auto full = state.solve();
  ASSERT_EQ(full.status, SolveStatus::kOptimal);
  EXPECT_NEAR(full.objective, -30.0, 1e-6);
}

TEST(SimplexDual, CrashBasisTakesPhaseOneThenEditsTakeDual) {
  // min x + 2y, x + y >= 3, x, y in [0, 2]. The crash basis (x = y = 0,
  // slack basic at -3) is primal infeasible yet dual feasible (both
  // costs are positive at lower bounds) — the cold solve must still
  // take phase 1, not the dual loop.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 2.0, 1.0, false);
  const int y = lp.add_variable("y", 0.0, 2.0, 2.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kGe, 3.0));
  SimplexState state(lp, SimplexOptions{});
  const auto cold = state.solve();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(cold.objective, 4.0, 1e-6);  // x=2, y=1 (y basic)
  EXPECT_FALSE(cold.dual_reentry);
  EXPECT_EQ(state.telemetry().dual_reentries, 0u);
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);

  // Raising y's lower bound past its basic value breaks primal
  // feasibility of the solved basis: that re-entry is the dual loop's.
  state.set_bounds(y, 1.5, 2.0);
  const auto warm = state.solve();
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.dual_reentry);
  EXPECT_NEAR(warm.objective, 4.5, 1e-6);  // x=1.5, y=1.5
  EXPECT_EQ(state.telemetry().dual_reentries, 1u);
  EXPECT_EQ(state.telemetry().phase1_reentries, 1u);
  EXPECT_EQ(state.telemetry().phase1_fallbacks, 0u);

  // reset() returns to the crash basis, so the next solve is phase 1.
  state.reset();
  const auto again = state.solve();
  ASSERT_EQ(again.status, SolveStatus::kOptimal);
  EXPECT_FALSE(again.dual_reentry);
  EXPECT_NEAR(again.objective, 4.5, 1e-6);
  EXPECT_EQ(state.telemetry().dual_reentries, 1u);
}

TEST(SimplexDual, LoadedDualInfeasibleBasisFallsBackToPhaseOne) {
  // A free variable with nonzero cost, nonbasic in a loaded basis, has
  // no finite bound to flip to: the basis is not dual feasible, so the
  // re-entry must punt to phase 1 and still reach the fresh optimum.
  LinearProgram lp;
  const int f = lp.add_variable("f", -kInf, kInf, 1.0, false);
  lp.add_constraint(make({{f, 1.0}}, Relation::kGe, 3.0));
  const auto fresh = SimplexState(lp).solve();
  ASSERT_EQ(fresh.status, SolveStatus::kOptimal);

  Basis slack_basis;  // the slack basic, f nonbasic at 0
  slack_basis.basic = {1};
  slack_basis.at_upper = {0, 0};
  slack_basis.structure_hash = lp.structure_hash();
  SimplexState state(lp, SimplexOptions{});
  ASSERT_EQ(state.load_basis(slack_basis), BasisRejectReason::kNone);
  const auto sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, fresh.objective, 1e-6);
  EXPECT_NEAR(sol.objective, 3.0, 1e-6);
  EXPECT_FALSE(sol.dual_reentry);
  EXPECT_EQ(state.telemetry().phase1_fallbacks, 1u);
  EXPECT_EQ(state.telemetry().dual_reentries, 0u);
}

TEST(SimplexDual, WrongBoundBoxedNonbasicIsRepairedByFlip) {
  // Bound edits can park a boxed nonbasic at the bound whose reduced-
  // cost sign is wrong for dual feasibility. That must be repaired by a
  // bound flip inside the dual entry check, not punted to phase 1 —
  // this is the branch-and-bound child-solve common case.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 5.0, -1.0, false);
  const int y = lp.add_variable("y", 0.0, 5.0, -2.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kLe, 6.0));
  SimplexState state(lp, SimplexOptions{});
  ASSERT_EQ(state.solve().status, SolveStatus::kOptimal);

  // Fix x near its upper bound and shrink y: whichever variable ends up
  // nonbasic-at-the-wrong-bound, the re-solve must stay on the dual
  // path with zero fallbacks.
  state.set_bounds(x, 4.0, 5.0);
  state.set_bounds(y, 0.0, 1.0);
  const auto sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(state.telemetry().phase1_fallbacks, 0u);
  EXPECT_NEAR(sol.objective, -7.0, 1e-6);  // x=5, y=1
}

// ---------------------------------------------------------------------------
// load_basis reject reasons
// ---------------------------------------------------------------------------

TEST(BasisReject, ShapeMismatchReported) {
  const LinearProgram lp = classic_lp();
  SimplexState src(lp, SimplexOptions{});
  ASSERT_EQ(src.solve().status, SolveStatus::kOptimal);
  const Basis b = src.extract_basis();

  LinearProgram other;  // 1 variable, 1 row: different shape entirely
  const int x = other.add_variable("x", 0.0, 10.0, 1.0, false);
  other.add_constraint(make({{x, 1.0}}, Relation::kGe, 3.0));

  SimplexState dst(other, SimplexOptions{});
  EXPECT_EQ(dst.load_basis(b), BasisRejectReason::kShape);
  // The failed load must leave a solvable cold-start state behind.
  EXPECT_EQ(dst.solve().status, SolveStatus::kOptimal);
}

TEST(BasisReject, StructureMismatchReported) {
  // Same shape (2 variables, 1 row), different sparsity pattern.
  LinearProgram lp_a;
  {
    const int x = lp_a.add_variable("x", 0.0, 4.0, -1.0, false);
    const int y = lp_a.add_variable("y", 0.0, 4.0, -1.0, false);
    lp_a.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kLe, 5.0));
  }
  LinearProgram lp_b;
  {
    const int x = lp_b.add_variable("x", 0.0, 4.0, -1.0, false);
    (void)lp_b.add_variable("y", 0.0, 4.0, -1.0, false);
    lp_b.add_constraint(make({{x, 1.0}}, Relation::kLe, 5.0));
  }
  SimplexState src(lp_a, SimplexOptions{});
  ASSERT_EQ(src.solve().status, SolveStatus::kOptimal);
  const Basis b = src.extract_basis();
  ASSERT_EQ(b.structure_hash, lp_a.structure_hash());

  SimplexState same(lp_a, SimplexOptions{});
  EXPECT_EQ(same.load_basis(b), BasisRejectReason::kNone);

  SimplexState dst(lp_b, SimplexOptions{});
  EXPECT_EQ(dst.load_basis(b), BasisRejectReason::kStructure);
  EXPECT_EQ(dst.solve().status, SolveStatus::kOptimal);
}

TEST(BasisReject, StaleBoundsBasisLoadsAndResnaps) {
  LinearProgram lp = classic_lp();
  SimplexState src(lp, SimplexOptions{});
  ASSERT_EQ(src.solve().status, SolveStatus::kOptimal);
  const Basis b = src.extract_basis();

  // Change the model's bounds after extraction.
  lp.set_bounds(0, 0.0, 3.0);

  // The stale basis loads and nonbasics re-snap onto the current
  // bounds (the serve-layer stale-cache contract).
  SimplexState lenient(lp, SimplexOptions{});
  EXPECT_EQ(lenient.load_basis(b), BasisRejectReason::kNone);
  EXPECT_EQ(lenient.solve().status, SolveStatus::kOptimal);
}

TEST(Simplex, TelemetryPlusEqualsSumsEveryField) {
  SimplexTelemetry sum{1, 2, 3, 4, 5};
  sum += SimplexTelemetry{10, 20, 30, 40, 50};
  EXPECT_EQ(sum.dual_reentries, 11u);
  EXPECT_EQ(sum.phase1_reentries, 22u);
  EXPECT_EQ(sum.phase1_fallbacks, 33u);
  EXPECT_EQ(sum.primal_pivots, 44u);
  EXPECT_EQ(sum.dual_pivots, 55u);
}
