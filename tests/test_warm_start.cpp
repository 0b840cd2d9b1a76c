// Warm-start correctness: the persistent SimplexState and the
// incremental branch and bound must change *speed*, never *answers*.
#include <gtest/gtest.h>

#include <random>

#include "ilp/branch_and_bound.hpp"
#include "ilp/simplex.hpp"
#include "partition/partitioner.hpp"

using namespace wishbone;
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

/// A random MIP shaped like the restricted partition formulation:
/// binary indicators, knapsack capacity rows, and monotone f_u >= f_v
/// edge rows.
LinearProgram random_partition_mip(std::uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> cost(-3.0, 3.0);
  std::uniform_real_distribution<double> coeff(0.05, 1.0);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    (void)lp.add_binary("f" + std::to_string(j), cost(rng));
  }
  for (int r = 0; r < 3; ++r) {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, coeff(rng));
    c.rel = Relation::kLe;
    c.rhs = 0.35 * n;
    lp.add_constraint(std::move(c));
  }
  for (int e = 0; e < n; ++e) {
    const int u = static_cast<int>(rng() % n);
    const int v = static_cast<int>(rng() % n);
    if (u == v) continue;
    lp.add_constraint(make({{u, 1.0}, {v, -1.0}}, Relation::kGe, 0.0));
  }
  return lp;
}

/// A random layered partition problem (same generator family as the
/// ablation bench) for end-to-end warm-vs-cold partitioning.
partition::PartitionProblem random_layered(std::uint32_t seed,
                                           std::size_t layers,
                                           std::size_t width) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> cpu(0.01, 0.2);
  std::uniform_real_distribution<double> shrink(0.4, 1.1);
  partition::PartitionProblem p;
  auto add = [&](partition::Requirement req, double c) {
    partition::ProblemVertex v;
    v.name = "v" + std::to_string(p.vertices.size());
    v.req = req;
    v.cpu = c;
    p.vertices.push_back(std::move(v));
    return p.vertices.size() - 1;
  };
  std::vector<std::size_t> prev;
  std::vector<double> prev_bw;
  for (std::size_t i = 0; i < width; ++i) {
    prev.push_back(add(partition::Requirement::kNode, 0.0));
    prev_bw.push_back(100.0);
  }
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<std::size_t> cur;
    std::vector<double> cur_bw;
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t v = add(partition::Requirement::kMovable, cpu(rng));
      const std::size_t from = prev[rng() % prev.size()];
      const double bw = prev_bw[from % width] * shrink(rng);
      p.edges.push_back(partition::ProblemEdge{from, v, bw});
      cur.push_back(v);
      cur_bw.push_back(bw);
    }
    prev = cur;
    prev_bw = cur_bw;
  }
  const std::size_t sink = add(partition::Requirement::kServer, 0.0);
  for (std::size_t i = 0; i < prev.size(); ++i) {
    p.edges.push_back(partition::ProblemEdge{prev[i], sink, prev_bw[i]});
  }
  p.cpu_budget = 0.5;
  p.net_budget = 1e9;
  p.alpha = 0.05;
  p.beta = 1.0;
  return p;
}

}  // namespace

// ---- Property: warm and cold branch and bound agree on the optimum.

class WarmVsCold : public ::testing::TestWithParam<int> {};

TEST_P(WarmVsCold, SameOptimalObjectiveOnRandomMips) {
  const LinearProgram lp = random_partition_mip(GetParam(), 12);

  MipOptions warm;  // defaults: shared state, rc fixing
  MipOptions cold;
  cold.warm_lp = false;
  cold.reduced_cost_fixing = false;

  const MipResult rw = BranchAndBound().solve(lp, warm);
  const MipResult rc = BranchAndBound().solve(lp, cold);
  ASSERT_EQ(rw.status, rc.status);
  if (rw.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(rw.objective, rc.objective, 1e-6);
  EXPECT_LE(lp.max_violation(rw.x), 1e-6);
}

TEST_P(WarmVsCold, SameOptimalObjectiveOnRandomPartitions) {
  const auto p = random_layered(static_cast<std::uint32_t>(GetParam()), 4, 4);

  partition::PartitionOptions warm;  // warm_start default on
  partition::PartitionOptions cold;  // seed solver: no hook, cold LPs
  cold.warm_start = false;
  cold.mip.warm_lp = false;
  cold.mip.reduced_cost_fixing = false;

  const auto rw = partition::solve_partition(p, warm);
  const auto rc = partition::solve_partition(p, cold);
  ASSERT_EQ(rw.feasible, rc.feasible);
  if (!rw.feasible) return;
  EXPECT_NEAR(rw.objective, rc.objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmVsCold, ::testing::Range(1, 17));

// ---- Regression: re-solve after a bound change matches a fresh solve.

class StateReentry : public ::testing::TestWithParam<int> {};

TEST_P(StateReentry, BoundChangeResolveMatchesFreshSolve) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> cost(-2.0, 2.0);
  std::uniform_real_distribution<double> coeff(0.1, 1.0);

  const int n = 8;
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    (void)lp.add_variable("x" + std::to_string(j), 0.0, 1.0, cost(rng),
                          false);
  }
  for (int r = 0; r < 4; ++r) {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, coeff(rng));
    c.rel = Relation::kLe;
    c.rhs = 2.0;
    lp.add_constraint(std::move(c));
  }

  SimplexState state(lp);
  const LpSolution first = state.solve();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  // Tighten one variable per step and compare the warm re-solve to a
  // cold solve of the same modified model.
  for (int step = 0; step < 4; ++step) {
    const int v = static_cast<int>(rng() % n);
    const bool fix_high = (rng() % 2) == 0;
    const double lo = fix_high ? 1.0 : 0.0;
    const double up = fix_high ? 1.0 : 0.0;
    state.set_bounds(v, lo, up);
    lp.set_bounds(v, lo, up);

    const LpSolution warm = state.solve();
    const LpSolution fresh = SimplexState(lp).solve();
    ASSERT_EQ(warm.status, fresh.status) << "step " << step;
    if (warm.status != SolveStatus::kOptimal) break;
    EXPECT_NEAR(warm.objective, fresh.objective, 1e-6) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateReentry, ::testing::Range(1, 13));

TEST(WarmStart, ReentryIsCheaperThanColdOverall) {
  // Not guaranteed per-instance, but across seeds the warm re-solves
  // must pivot strictly less than cold solves of the same models.
  std::size_t warm_total = 0, cold_total = 0;
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    LinearProgram lp = random_partition_mip(seed, 14);
    SimplexState state(lp);
    ASSERT_EQ(state.solve().status, SolveStatus::kOptimal);
    for (int v = 0; v < 5; ++v) {
      state.set_bounds(v, 1.0, 1.0);
      lp.set_bounds(v, 1.0, 1.0);
      const LpSolution warm = state.solve();
      const LpSolution fresh = SimplexState(lp).solve();
      ASSERT_EQ(warm.status, fresh.status);
      if (warm.status != SolveStatus::kOptimal) break;
      EXPECT_NEAR(warm.objective, fresh.objective, 1e-6);
      warm_total += warm.iterations;
      cold_total += fresh.iterations;
    }
  }
  EXPECT_LT(warm_total, cold_total);
}

// ---- Basis snapshot / inheritance across states.

TEST(WarmStart, BasisRoundTripReproducesOptimum) {
  const LinearProgram lp = random_partition_mip(7, 10);
  SimplexState a(lp);
  const LpSolution sa = a.solve();
  ASSERT_EQ(sa.status, SolveStatus::kOptimal);

  SimplexState b(lp);
  ASSERT_EQ(b.load_basis(a.extract_basis()), BasisRejectReason::kNone);
  const LpSolution sb = b.solve();
  ASSERT_EQ(sb.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sb.objective, sa.objective, 1e-9);
  // Re-entering at the optimal basis must terminate almost immediately
  // (the single iteration is the optimality-proving full price scan).
  EXPECT_LE(sb.iterations, 2u);
}

// ---- refactorize() failure paths: singular loads and drift triggers.

class LoadFailure : public ::testing::TestWithParam<BasisEngineKind> {};

TEST_P(LoadFailure, SingularLoadedBasisFallsBackCold) {
  // x0 and x1 have linearly dependent constraint columns, so a basis
  // made of exactly {x0, x1} is singular: load_basis must reject it in
  // refactorize() (not in the shape checks) and recover to a working
  // cold state, under either engine.
  LinearProgram lp;
  (void)lp.add_variable("x0", 0.0, 1.0, -1.0, false);
  (void)lp.add_variable("x1", 0.0, 1.0, -0.5, false);
  lp.add_constraint(make({{0, 1.0}, {1, 2.0}}, Relation::kLe, 1.0));
  lp.add_constraint(make({{0, 2.0}, {1, 4.0}}, Relation::kLe, 2.0));

  SimplexOptions opts;
  opts.engine = GetParam();
  SimplexState state(lp, opts);

  Basis singular;
  singular.basic = {0, 1};                   // both structural columns
  singular.at_upper.assign(4, 0);
  singular.structure_hash = lp.structure_hash();
  EXPECT_EQ(state.load_basis(singular), BasisRejectReason::kSingular);

  // The fallback state must still solve to the true optimum.
  const LpSolution sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -1.0, 1e-9);  // all of the row goes to x0
}

TEST_P(LoadFailure, ValidLoadedBasisSurvives) {
  // Control: a nonsingular one-structural basis loads fine and the
  // re-entry solve terminates at the same optimum.
  const LinearProgram lp = random_partition_mip(13, 8);
  SimplexOptions opts;
  opts.engine = GetParam();
  SimplexState a(lp, opts);
  const LpSolution sa = a.solve();
  ASSERT_EQ(sa.status, SolveStatus::kOptimal);
  SimplexState b(lp, opts);
  ASSERT_EQ(b.load_basis(a.extract_basis()), BasisRejectReason::kNone);
  const LpSolution sb = b.solve();
  ASSERT_EQ(sb.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sb.objective, sa.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Engines, LoadFailure,
                         ::testing::Values(BasisEngineKind::kDense,
                                           BasisEngineKind::kLu),
                         [](const auto& info) {
                           return std::string(
                               info.param == BasisEngineKind::kDense ? "dense"
                                                                     : "lu");
                         });

TEST(WarmStart, EtaFileOverflowTriggersRefactorization) {
  // A 2-pivot eta budget on an instance needing many pivots: the LU
  // engine must cycle through refactorizations mid-solve and still
  // match the dense reference objective.
  const LinearProgram lp = random_partition_mip(21, 16);
  SimplexOptions lu;
  lu.refactor_interval = 2;
  SimplexState state(lp, lu);
  const LpSolution sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  ASSERT_GT(sol.iterations, 2u);
  EXPECT_GE(state.basis_stats().refactorizations, 1u);
  EXPECT_LE(state.basis_stats().eta_len_peak, 2u);

  SimplexOptions dense;
  dense.engine = BasisEngineKind::kDense;
  const LpSolution ref = SimplexState(lp, dense).solve();
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, ref.objective, 1e-6);
}

TEST(WarmStart, LoadBasisRejectsShapeMismatch) {
  const LinearProgram small = random_partition_mip(3, 6);
  const LinearProgram big = random_partition_mip(3, 12);
  SimplexState a(small);
  ASSERT_EQ(a.solve().status, SolveStatus::kOptimal);
  SimplexState b(big);
  EXPECT_EQ(b.load_basis(a.extract_basis()), BasisRejectReason::kShape);
  // Fallback state must still solve correctly.
  EXPECT_EQ(b.solve().status, SolveStatus::kOptimal);
}

// ---- Reduced costs exposed for fixing.

TEST(WarmStart, ReducedCostsSignalFixableVariables) {
  // min -x0 - 0.1 x1 s.t. x0 + x1 <= 1 (binaries relaxed): optimum
  // x0=1, x1=0; x1 nonbasic at lower with positive reduced cost.
  LinearProgram lp;
  (void)lp.add_binary("x0", -1.0);
  (void)lp.add_binary("x1", -0.1);
  lp.add_constraint(make({{0, 1.0}, {1, 1.0}}, Relation::kLe, 1.0));
  SimplexState state(lp);
  const LpSolution sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.x[1], 0.0, 1e-9);
  const auto& rc = state.reduced_costs();
  ASSERT_EQ(rc.size(), 2u);
  // x1 enters only at a cost: reduced cost -0.1 - (-1.0) = +0.9.
  EXPECT_NEAR(rc[1], 0.9, 1e-9);
}

// ---- Final basis threads across structurally identical solves.

TEST(WarmStart, WarmBasisAcceleratesRepeatSolve) {
  const LinearProgram lp = random_partition_mip(5, 14);
  const MipResult cold = BranchAndBound().solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_FALSE(cold.final_basis.empty());

  MipOptions opts;
  opts.warm_basis = cold.final_basis;
  const MipResult warm = BranchAndBound().solve(lp, opts);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}
