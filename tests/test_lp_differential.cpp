// Randomized differential testing of the two basis engines: the dense
// Gauss-Jordan inverse (PR 1 reference) and the Markowitz LU + eta-file
// engine must agree on status, objective, solution feasibility, and
// bound-proof outcomes on thousands of generated LPs and MIPs — the
// solver core's correctness oracle.
//
// Trial count: WISHBONE_DIFF_TRIALS sets the per-family instance count
// (default 400, which CI runs: 5 LP families x 400 = 2000 instances
// plus the MIP / warm-chain / medium-LP families on top). Crank it up
// locally, e.g.
//
//   WISHBONE_DIFF_TRIALS=5000 ./build/wishbone_tests \
//       --gtest_filter='LpDifferential*'
//
// Generators (tests/lp_generators.hpp, shared with the serial-vs-
// parallel suite in test_parallel_bnb.cpp) draw coefficients from a
// dyadic grid (multiples of 1/64) so feasibility/optimality margins
// are either exactly zero or far above the solver tolerances —
// instances stay off the tolerance knife-edge where the two engines
// could legitimately disagree, while exact ties (the degenerate family
// exists to produce them) remain.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "ilp/basis_lu.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/simplex.hpp"
#include "lp_generators.hpp"

using namespace wishbone::ilp;

namespace {

using testgen::diff_trials;
using testgen::gen_bounded_lp;
using testgen::gen_degenerate_lp;
using testgen::gen_dense_lp;
using testgen::gen_partition_shaped;
using testgen::gen_sparse_lp;
using testgen::grid;
using testgen::grid_nz;

// ------------------------------------------------------- the oracle

const char* engine_name(BasisEngineKind kind) {
  return kind == BasisEngineKind::kDense ? "dense" : "lu";
}

SimplexOptions engine_opts(BasisEngineKind kind) {
  SimplexOptions o;
  o.engine = kind;
  // A short eta file forces the LU engine through its full
  // refactorization cycle on nearly every nontrivial instance, so the
  // harness exercises factorize/eta/refactorize, not just one of them.
  o.refactor_interval = 16;
  return o;
}

std::string describe(const LpSolution& s) {
  return "status=" + std::to_string(static_cast<int>(s.status)) +
         " obj=" + std::to_string(s.objective) +
         " iters=" + std::to_string(s.iterations);
}

/// Solves `lp` with both engines and asserts full agreement.
void expect_engines_agree(const LinearProgram& lp, const std::string& label) {
  const LpSolution dense =
      SimplexState(lp, engine_opts(BasisEngineKind::kDense)).solve();
  const LpSolution lu =
      SimplexState(lp, engine_opts(BasisEngineKind::kLu)).solve();
  ASSERT_EQ(dense.status, lu.status)
      << label << "\ndense: " << describe(dense) << "\nlu: " << describe(lu)
      << "\n" << lp.to_text();
  if (dense.status != SolveStatus::kOptimal) return;
  const double tol = 1e-6 * std::max(1.0, std::fabs(dense.objective));
  EXPECT_NEAR(dense.objective, lu.objective, tol) << label;
  EXPECT_LE(lp.max_violation(lu.x), 1e-5)
      << label << ": LU engine returned an infeasible point";
  EXPECT_LE(lp.max_violation(dense.x), 1e-5)
      << label << ": dense engine returned an infeasible point";
}

void run_lp_family(const char* name,
                   LinearProgram (*gen)(std::uint32_t)) {
  const int trials = diff_trials();
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 1000u + static_cast<std::uint32_t>(t);
    expect_engines_agree(gen(seed),
                         std::string(name) + " seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

// --------------------------------------------------------- LP families

TEST(LpDifferential, DenseRandomLps) {
  run_lp_family("dense_lp", gen_dense_lp);
}

TEST(LpDifferential, SparseRandomLps) {
  run_lp_family("sparse_lp", gen_sparse_lp);
}

TEST(LpDifferential, DegenerateLps) {
  run_lp_family("degenerate_lp", gen_degenerate_lp);
}

TEST(LpDifferential, BoundedVariableLps) {
  run_lp_family("bounded_lp", gen_bounded_lp);
}

TEST(LpDifferential, PartitionShapedLps) {
  run_lp_family("partition_lp", [](std::uint32_t seed) {
    return gen_partition_shaped(seed, /*integral=*/false);
  });
}

TEST(LpDifferential, PartitionShapedLpsAtLuSize) {
  // The partition formulation at production size: 3-4 dense knapsack
  // rows over n = 64..200 indicators plus ~n monotone rows. Its bases
  // are nearly triangular, so every refactorization runs mostly
  // through the column-singleton pass.
  const int trials = std::max(diff_trials() / 8, 10);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 5000u + static_cast<std::uint32_t>(t);
    const int n = 64 + static_cast<int>(seed % 137);
    const LinearProgram lp =
        gen_partition_shaped(seed, /*integral=*/false, n, 3 + t % 2);
    ASSERT_GE(lp.num_constraints(), 48);
    expect_engines_agree(lp, "partition_lu seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

namespace {

/// `lp` with every knapsack coefficient and objective coefficient
/// scaled by `s`, as a drifting device's loads scale with its rate:
/// same structure (so a basis extracted from `lp` stays loadable), same
/// budgets, same monotone rows.
LinearProgram drifted(const LinearProgram& lp, double s) {
  LinearProgram out;
  for (int v = 0; v < lp.num_variables(); ++v) {
    out.add_variable(lp.variable_name(v), lp.lower(v), lp.upper(v),
                     s * lp.objective_coeff(v), lp.is_integer(v));
  }
  for (Constraint c : lp.constraints()) {
    if (c.rel == Relation::kLe) {
      for (auto& term : c.terms) term.second *= s;
    }
    out.add_constraint(std::move(c));
  }
  return out;
}

}  // namespace

TEST(LpDifferential, DriftedLoadedBasesAgreeWithColdOracle) {
  // The serve path's stale re-solve: solve, extract the basis, drift
  // the loads, load the basis into fresh states of both engines and
  // re-solve. Both must match a dense cold solve of the drifted model.
  const int trials = std::max(diff_trials() / 16, 10);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 6000u + static_cast<std::uint32_t>(t);
    const LinearProgram lp = gen_partition_shaped(
        seed, /*integral=*/false, 64 + static_cast<int>(seed % 137),
        3 + t % 2);
    SimplexState donor(lp, engine_opts(BasisEngineKind::kLu));
    ASSERT_EQ(donor.solve().status, SolveStatus::kOptimal);
    const Basis basis = donor.extract_basis();
    for (double s : {0.85, 0.985, 1.015, 1.2}) {
      const LinearProgram next = drifted(lp, s);
      ASSERT_EQ(next.structure_hash(), lp.structure_hash());
      const LpSolution ref =
          SimplexState(next, engine_opts(BasisEngineKind::kDense)).solve();
      for (BasisEngineKind kind :
           {BasisEngineKind::kDense, BasisEngineKind::kLu}) {
        const std::string label = std::string(engine_name(kind)) +
                                  " seed=" + std::to_string(seed) +
                                  " scale=" + std::to_string(s);
        SimplexState warm(next, engine_opts(kind));
        ASSERT_EQ(warm.load_basis(basis), BasisRejectReason::kNone) << label;
        const LpSolution got = warm.solve();
        ASSERT_EQ(got.status, ref.status)
            << label << "\nref: " << describe(ref)
            << "\ngot: " << describe(got);
        if (ref.status != SolveStatus::kOptimal) continue;
        const double tol = 1e-6 * std::max(1.0, std::fabs(ref.objective));
        EXPECT_NEAR(got.objective, ref.objective, tol) << label;
        EXPECT_LE(next.max_violation(got.x), 1e-5) << label;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LpDifferential, SingularLoadedBasesAreRejected) {
  // A 52-row model with three planted dependencies, one per place a
  // factorization can find it:
  //  - x0 lives only in row 0, so with row 0's slack basic two basic
  //    columns share one row: the singleton pass empties a column;
  //  - x1 and x2 are proportional in rows 1-2: a singular 2x2 bump
  //    left for the Markowitz phase;
  //  - x3 has no nonzero coefficient: an empty basis column.
  // Each basis must be rejected as kSingular by both engines, and the
  // state must fall back to the crash basis and still solve.
  const int m = 52;
  LinearProgram lp;
  for (int v = 0; v < m; ++v) {
    lp.add_variable("x" + std::to_string(v), 0.0, 1.0, -1.0 - 0.01 * v,
                    false);
  }
  for (int r = 0; r < m; ++r) {
    Constraint c;
    c.rel = Relation::kLe;
    c.rhs = 1.5;
    if (r == 0) {
      c.terms = {{0, 1.0}};
    } else if (r == 1 || r == 2) {
      c.terms = {{1, 1.0 * r}, {2, 2.0 * r}, {4, 1.0}};
    } else if (r == 3) {
      c.terms = {{3, 0.0}, {5, 1.0}};
    } else {
      c.terms = {{r, 1.0}, {r + 1 < m ? r + 1 : 4, 0.5}};
    }
    lp.add_constraint(std::move(c));
  }
  const LpSolution ref =
      SimplexState(lp, engine_opts(BasisEngineKind::kDense)).solve();
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);

  auto slack_basis = [&] {
    Basis b;
    b.basic.resize(m);
    for (int r = 0; r < m; ++r) b.basic[r] = m + r;
    b.at_upper.assign(2 * m, 0);
    b.structure_hash = lp.structure_hash();
    return b;
  };
  std::vector<Basis> singular(3, slack_basis());
  singular[0].basic[1] = 0;  // x0 beside row 0's slack
  singular[1].basic[1] = 1;  // x1 and x2 replace the slacks of rows 1-2
  singular[1].basic[2] = 2;
  singular[2].basic[3] = 3;  // x3, an all-zero column

  for (std::size_t c = 0; c < singular.size(); ++c) {
    for (BasisEngineKind kind :
         {BasisEngineKind::kDense, BasisEngineKind::kLu}) {
      const std::string label =
          std::string(engine_name(kind)) + " case=" + std::to_string(c);
      SimplexState st(lp, engine_opts(kind));
      EXPECT_EQ(st.load_basis(singular[c]), BasisRejectReason::kSingular)
          << label;
      const LpSolution got = st.solve();
      ASSERT_EQ(got.status, SolveStatus::kOptimal) << label;
      EXPECT_NEAR(got.objective, ref.objective, 1e-9) << label;
    }
  }
  // The all-slack basis itself is fine.
  SimplexState st(lp, engine_opts(BasisEngineKind::kLu));
  EXPECT_EQ(st.load_basis(slack_basis()), BasisRejectReason::kNone);
}

// ------------------------------------------------- MIPs through B&B

TEST(LpDifferential, PartitionMipsAgreeOnProofs) {
  // Status, incumbent objective, AND the proven bound must match: a
  // basis-engine bug that corrupts duals shows up first in bound
  // proofs (wrongly pruned subtrees), not in incumbents.
  const int trials = std::max(diff_trials() / 2, 25);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 9000u + static_cast<std::uint32_t>(t);
    const LinearProgram lp = gen_partition_shaped(seed, /*integral=*/true);

    MipOptions dense_opts, lu_opts;
    dense_opts.lp = engine_opts(BasisEngineKind::kDense);
    lu_opts.lp = engine_opts(BasisEngineKind::kLu);
    const MipResult rd = BranchAndBound().solve(lp, dense_opts);
    const MipResult rl = BranchAndBound().solve(lp, lu_opts);

    ASSERT_EQ(rd.status, rl.status) << "seed=" << seed;
    ASSERT_EQ(rd.has_incumbent, rl.has_incumbent) << "seed=" << seed;
    if (!rd.has_incumbent) continue;
    const double tol = 1e-6 * std::max(1.0, std::fabs(rd.objective));
    EXPECT_NEAR(rd.objective, rl.objective, tol) << "seed=" << seed;
    if (rd.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(rd.best_bound, rl.best_bound, tol) << "seed=" << seed;
    }
    EXPECT_LE(lp.max_violation(rl.x), 1e-5) << "seed=" << seed;
  }
}

// ----------------- engines x {cold solve, warm re-entry after bound edits}

TEST(LpDifferential, WarmReentryChainsAgree) {
  // Mimics branch and bound's bound-edit pattern: one persistent state
  // per engine, a chain of random fixings, solve after each edit. After
  // every edit each engine solves twice — cold (a fresh state: crash
  // basis, composite phase 1) and warm (the persistent state: dual
  // re-entry from the previous basis) — and both must agree with a
  // fresh dense cold solve, the oracle. Aggregate telemetry proves the
  // dual loop, not silent phase-1 fallback, handled the re-entries.
  const int chains = std::max(diff_trials() / 4, 25);
  std::size_t dual_reentries = 0, fallbacks = 0;
  std::mt19937 rng(0xC0FFEE);
  for (int t = 0; t < chains; ++t) {
    const std::uint32_t seed = 20000u + static_cast<std::uint32_t>(t);
    const LinearProgram base = gen_partition_shaped(seed, false);
    LinearProgram edited = base;
    SimplexState warm[] = {
        SimplexState(base, engine_opts(BasisEngineKind::kDense)),
        SimplexState(base, engine_opts(BasisEngineKind::kLu))};
    const int n = base.num_variables();
    for (int step = 0; step < 6; ++step) {
      if (step > 0) {
        const int v = static_cast<int>(rng() % static_cast<unsigned>(n));
        const double b = (rng() % 2) ? 1.0 : 0.0;
        for (SimplexState& s : warm) s.set_bounds(v, b, b);
        edited.set_bounds(v, b, b);
      }
      const LpSolution ref =
          SimplexState(edited, engine_opts(BasisEngineKind::kDense)).solve();
      for (SimplexState& s : warm) {
        const BasisEngineKind engine = s.engine_kind();
        const LpSolution cold =
            SimplexState(edited, engine_opts(engine)).solve();
        const LpSolution got = s.solve();
        for (const LpSolution* sol : {&cold, &got}) {
          const std::string label =
              std::string(engine_name(engine)) +
              (sol == &cold ? "/cold" : "/warm") +
              " seed=" + std::to_string(seed) +
              " step=" + std::to_string(step);
          ASSERT_EQ(sol->status, ref.status)
              << label << "\nref: " << describe(ref)
              << "\ngot: " << describe(*sol);
          if (ref.status != SolveStatus::kOptimal) continue;
          const double tol = 1e-6 * std::max(1.0, std::fabs(ref.objective));
          EXPECT_NEAR(sol->objective, ref.objective, tol) << label;
          EXPECT_LE(edited.max_violation(sol->x), 1e-5)
              << label << ": infeasible point";
        }
      }
      if (ref.status != SolveStatus::kOptimal) break;
    }
    for (const SimplexState& s : warm) {
      dual_reentries += s.telemetry().dual_reentries;
      fallbacks += s.telemetry().phase1_fallbacks;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(dual_reentries, 0u)
      << "no chain ever exercised the dual re-entry path";
  // Boxed-variable fixings keep the basis dual-feasible (wrong-bound
  // nonbasics are repaired by bound flips), so fallbacks should be a
  // rare numerical-trouble event, not the norm.
  EXPECT_LE(fallbacks, dual_reentries / 10 + 1)
      << fallbacks << " phase-1 fallbacks vs " << dual_reentries
      << " dual re-entries";
}

// ----------------------------- medium instances (real eta/refactor use)

TEST(LpDifferential, MediumSparseLpsExerciseRefactorization) {
  // Large enough that the eta file cycles through several
  // refactorizations per solve.
  const int trials = std::max(diff_trials() / 20, 5);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 31000u + static_cast<std::uint32_t>(t);
    const LinearProgram lp =
        gen_partition_shaped(seed, /*integral=*/false, /*n=*/120);

    SimplexState dense(lp, engine_opts(BasisEngineKind::kDense));
    SimplexState lu(lp, engine_opts(BasisEngineKind::kLu));
    const LpSolution rd = dense.solve();
    const LpSolution rl = lu.solve();
    ASSERT_EQ(rd.status, rl.status) << "seed=" << seed;
    if (rd.status == SolveStatus::kOptimal) {
      const double tol = 1e-6 * std::max(1.0, std::fabs(rd.objective));
      EXPECT_NEAR(rd.objective, rl.objective, tol) << "seed=" << seed;
    }
    if (rl.iterations > 3 * 16) {
      // More pivots than the eta file holds: the solve must have gone
      // through the drift-containment refactorization path.
      EXPECT_GE(lu.basis_stats().refactorizations, 1u) << "seed=" << seed;
    }
    EXPECT_EQ(lu.engine_kind(), BasisEngineKind::kLu);
    EXPECT_EQ(dense.engine_kind(), BasisEngineKind::kDense);
  }
}

// ------------------------------------- basis snapshots across engines

TEST(LpDifferential, BasisSnapshotsPortAcrossEngines) {
  // A Basis is engine-independent: extract from a dense state, load
  // into an LU state (and back) — both must refactorize it and land on
  // the same optimum immediately.
  for (std::uint32_t seed = 41000; seed < 41020; ++seed) {
    const LinearProgram lp = gen_partition_shaped(seed, false);
    SimplexState dense(lp, engine_opts(BasisEngineKind::kDense));
    const LpSolution rd = dense.solve();
    ASSERT_EQ(rd.status, SolveStatus::kOptimal);

    SimplexState lu(lp, engine_opts(BasisEngineKind::kLu));
    ASSERT_EQ(lu.load_basis(dense.extract_basis()), BasisRejectReason::kNone)
        << "seed=" << seed;
    const LpSolution rl = lu.solve();
    ASSERT_EQ(rl.status, SolveStatus::kOptimal) << "seed=" << seed;
    EXPECT_NEAR(rl.objective, rd.objective, 1e-9) << "seed=" << seed;
    EXPECT_LE(rl.iterations, 2u) << "seed=" << seed;

    SimplexState dense2(lp, engine_opts(BasisEngineKind::kDense));
    ASSERT_EQ(dense2.load_basis(lu.extract_basis()), BasisRejectReason::kNone)
        << "seed=" << seed;
    const LpSolution rd2 = dense2.solve();
    ASSERT_EQ(rd2.status, SolveStatus::kOptimal) << "seed=" << seed;
    EXPECT_NEAR(rd2.objective, rd.objective, 1e-9) << "seed=" << seed;
  }
}

// ----------------------------------------- engine unit: drift triggers

TEST(BasisEngineUnit, LuUpdateDeclinesUnstablePivot) {
  // |w_r| tiny relative to max|w|: absorbing this pivot as an eta
  // would amplify error through every later solve — the engine must
  // decline and force a refactorization.
  auto eng = make_basis_engine(BasisEngineKind::kLu, 3);
  std::vector<SparseColumn> cols = {
      {{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}};
  ASSERT_TRUE(eng->factorize(cols, {0, 1, 2}));
  const std::vector<double> w = {1.0, 1e-12, 0.5};
  EXPECT_FALSE(eng->update(1, w));           // unstable leave row
  EXPECT_TRUE(eng->update(0, w));            // stable pivot absorbs fine
  EXPECT_EQ(eng->stats().eta_updates, 1u);
  EXPECT_EQ(eng->stats().eta_len, 1u);
}

TEST(BasisEngineUnit, LuUpdateDeclinesWhenEtaFileFull) {
  auto eng = make_basis_engine(BasisEngineKind::kLu, 2, /*max_eta=*/2);
  std::vector<SparseColumn> cols = {{{0, 1.0}}, {{1, 1.0}}};
  ASSERT_TRUE(eng->factorize(cols, {0, 1}));
  const std::vector<double> w = {1.0, 0.25};
  EXPECT_TRUE(eng->update(0, w));
  EXPECT_TRUE(eng->update(1, w));
  EXPECT_FALSE(eng->update(0, w));  // file full: caller must refactorize
  ASSERT_TRUE(eng->factorize(cols, {0, 1}));
  EXPECT_EQ(eng->stats().eta_len, 0u) << "refactorization clears the file";
  EXPECT_TRUE(eng->update(0, w));
}

TEST(BasisEngineUnit, FactorizeRejectsSingularBasis) {
  for (BasisEngineKind kind :
       {BasisEngineKind::kDense, BasisEngineKind::kLu}) {
    auto eng = make_basis_engine(kind, 2);
    // Columns 0 and 1 are linearly dependent.
    std::vector<SparseColumn> cols = {{{0, 1.0}, {1, 2.0}},
                                      {{0, 2.0}, {1, 4.0}},
                                      {{0, 1.0}}};
    EXPECT_FALSE(eng->factorize(cols, {0, 1})) << engine_name(kind);
    EXPECT_TRUE(eng->factorize(cols, {0, 2})) << engine_name(kind);
  }
}

TEST(BasisEngineUnit, SmallModelsSolveOnLuByDefault) {
  // Small models, like the 8-row speech partition ILPs, must factor
  // with LU under default options: the engine reports kLu and a
  // multi-pivot solve absorbs its pivots as eta updates, which the
  // dense engine never records.
  const LinearProgram lp = gen_partition_shaped(77, /*integral=*/false, 8);
  ASSERT_LT(lp.num_constraints(), 48);
  SimplexState state(lp);
  EXPECT_EQ(state.engine_kind(), BasisEngineKind::kLu);
  const LpSolution sol = state.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  ASSERT_GT(sol.iterations, 1u);
  EXPECT_GT(state.basis_stats().eta_updates, 0u);

  const LpSolution ref =
      SimplexState(lp, engine_opts(BasisEngineKind::kDense)).solve();
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, ref.objective,
              1e-6 * std::max(1.0, std::fabs(ref.objective)));
}

TEST(BasisEngineUnit, FtranBtranMatchDenseOnRandomBases) {
  // Same factorized basis, same right-hand sides: the two engines'
  // FTRAN/BTRAN must agree to near machine precision.
  std::mt19937 rng(99);
  for (int t = 0; t < 50; ++t) {
    const int m = 2 + static_cast<int>(rng() % 12);
    std::vector<SparseColumn> cols(m);
    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < m; ++i) {
        if (i != j && rng() % 3 == 0) {
          cols[j].emplace_back(i, grid_nz(rng, -1, 1));
        }
      }
      cols[j].emplace_back(j, 8.0 + grid(rng, 0.0, 1.0));  // diag dominant
    }
    std::vector<int> basic(m);
    for (int i = 0; i < m; ++i) basic[i] = i;

    auto dense = make_basis_engine(BasisEngineKind::kDense, m);
    auto lu = make_basis_engine(BasisEngineKind::kLu, m);
    ASSERT_TRUE(dense->factorize(cols, basic));
    ASSERT_TRUE(lu->factorize(cols, basic));

    SparseColumn a;
    for (int i = 0; i < m; ++i) {
      if (rng() % 2) a.emplace_back(i, grid_nz(rng, -2, 2));
    }
    std::vector<double> fd, fl;
    dense->ftran(a, fd);
    lu->ftran(a, fl);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(fd[i], fl[i], 1e-8) << "t=" << t << " i=" << i;
    }

    std::vector<double> yd(m), yl;
    for (int i = 0; i < m; ++i) yd[i] = grid(rng, -1, 1);
    yl = yd;
    dense->btran(yd);
    lu->btran(yl);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(yd[i], yl[i], 1e-8) << "t=" << t << " i=" << i;
    }
  }
}
