// Seeded LP / MIP instance generators shared by the solver test
// harnesses: the dense-vs-LU differential suite
// (test_lp_differential.cpp) and the serial-vs-parallel differential
// suite (test_parallel_bnb.cpp).
//
// Coefficients are drawn from a dyadic grid (multiples of 1/64) so
// feasibility/optimality margins are either exactly zero or far above
// the solver tolerances — instances stay off the tolerance knife-edge
// where two correct solvers could legitimately disagree, while exact
// ties (the degenerate family exists to produce them) remain.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "ilp/model.hpp"

namespace wishbone::ilp::testgen {

/// Per-family trial count for the randomized differential suites:
/// WISHBONE_DIFF_TRIALS, default 400 (the CI setting).
inline int diff_trials() {
  static const int trials = [] {
    if (const char* e = std::getenv("WISHBONE_DIFF_TRIALS")) {
      const int v = std::atoi(e);
      if (v > 0) return v;
    }
    return 400;  // CI default: 5 LP families x 400 = 2000 instances
  }();
  return trials;
}

/// Random value on the dyadic grid (multiples of 1/64).
inline double grid(std::mt19937& rng, double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return std::round(d(rng) * 64.0) / 64.0;
}

/// Grid value bounded away from zero (avoids near-singular columns).
inline double grid_nz(std::mt19937& rng, double lo, double hi) {
  for (;;) {
    const double v = grid(rng, lo, hi);
    if (std::fabs(v) >= 0.125) return v;
  }
}

inline LinearProgram gen_dense_lp(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const int n = 2 + static_cast<int>(rng() % 9);
  const int m = 1 + static_cast<int>(rng() % 8);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    lp.add_variable("x" + std::to_string(j), 0.0, grid(rng, 0.5, 3.0),
                    grid(rng, -2.0, 2.0), false);
  }
  for (int r = 0; r < m; ++r) {
    Constraint c;
    for (int j = 0; j < n; ++j) c.terms.emplace_back(j, grid_nz(rng, -2, 2));
    const unsigned k = rng() % 8;
    c.rel = k < 5 ? Relation::kLe : (k < 7 ? Relation::kGe : Relation::kEq);
    if (c.rel == Relation::kEq) {
      // Anchor the rhs at a random box point so equality rows are
      // individually attainable (jointly they may still conflict).
      double rhs = 0.0;
      for (const auto& [j, coeff] : c.terms) {
        rhs += coeff * grid(rng, 0.0, lp.upper(j));
      }
      c.rhs = std::round(rhs * 64.0) / 64.0;
    } else {
      c.rhs = grid(rng, -1.0, 0.4 * n);
    }
    lp.add_constraint(std::move(c));
  }
  return lp;
}

inline LinearProgram gen_sparse_lp(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const int n = 8 + static_cast<int>(rng() % 33);
  const int m = 4 + static_cast<int>(rng() % 27);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    lp.add_variable("x" + std::to_string(j), 0.0, grid(rng, 0.5, 2.0),
                    grid(rng, -2.0, 2.0), false);
  }
  for (int r = 0; r < m; ++r) {
    Constraint c;
    const int nnz = 2 + static_cast<int>(rng() % 3);
    for (int t = 0; t < nnz; ++t) {
      const int j = static_cast<int>(rng() % n);
      c.terms.emplace_back(j, grid_nz(rng, -1.5, 1.5));
    }
    c.rel = (rng() % 4 == 0) ? Relation::kGe : Relation::kLe;
    c.rhs = grid(rng, -0.5, 2.0);
    lp.add_constraint(std::move(c));
  }
  return lp;
}

inline LinearProgram gen_degenerate_lp(std::uint32_t seed) {
  // Exact ties everywhere: duplicated rows, shared rhs values, equal
  // objective coefficients, zero rhs rows — the degenerate-pivot and
  // Bland's-rule paths.
  std::mt19937 rng(seed);
  const int n = 4 + static_cast<int>(rng() % 9);
  LinearProgram lp;
  const double shared_cost = grid(rng, -1.0, 1.0);
  for (int j = 0; j < n; ++j) {
    lp.add_variable("x" + std::to_string(j), 0.0, 1.0,
                    (rng() % 2) ? shared_cost : grid(rng, -1.0, 1.0),
                    false);
  }
  std::vector<Constraint> rows;
  const int base_rows = 2 + static_cast<int>(rng() % 3);
  for (int r = 0; r < base_rows; ++r) {
    Constraint c;
    for (int j = 0; j < n; ++j) {
      if (rng() % 2) c.terms.emplace_back(j, (rng() % 2) ? 1.0 : 0.5);
    }
    if (c.terms.empty()) c.terms.emplace_back(0, 1.0);
    c.rel = Relation::kLe;
    c.rhs = (rng() % 3 == 0) ? 0.0 : 0.25 * static_cast<double>(rng() % 8);
    rows.push_back(c);
  }
  // Duplicate a subset verbatim (redundant rows = degenerate bases).
  const std::size_t orig = rows.size();
  for (std::size_t r = 0; r < orig; ++r) {
    if (rng() % 2) rows.push_back(rows[r]);
  }
  for (auto& c : rows) lp.add_constraint(std::move(c));
  return lp;
}

inline LinearProgram gen_bounded_lp(std::uint32_t seed) {
  // Bound-structure zoo: free variables, one-sided bounds, fixed
  // variables, negative ranges — the bound-flip ratio-test paths.
  std::mt19937 rng(seed);
  const int n = 3 + static_cast<int>(rng() % 10);
  const int m = 2 + static_cast<int>(rng() % 6);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    double lo = 0.0, up = 1.0;
    switch (rng() % 6) {
      case 0: lo = -kInf; up = kInf; break;              // free
      case 1: lo = -kInf; up = grid(rng, -1.0, 2.0); break;
      case 2: lo = grid(rng, -2.0, 1.0); up = kInf; break;
      case 3: lo = up = grid(rng, -1.0, 1.0); break;     // fixed
      case 4: lo = grid(rng, -3.0, -1.0); up = grid(rng, -1.0, 1.0) + 2.0;
              break;
      default: lo = 0.0; up = grid(rng, 0.5, 2.0); break;
    }
    lp.add_variable("x" + std::to_string(j), lo, up, grid(rng, -1.5, 1.5),
                    false);
  }
  for (int r = 0; r < m; ++r) {
    Constraint c;
    const int nnz = 2 + static_cast<int>(rng() % 3);
    for (int t = 0; t < nnz; ++t) {
      c.terms.emplace_back(static_cast<int>(rng() % n),
                           grid_nz(rng, -1.5, 1.5));
    }
    const unsigned k = rng() % 6;
    c.rel = k < 4 ? Relation::kLe : (k < 5 ? Relation::kGe : Relation::kEq);
    c.rhs = grid(rng, -1.0, 3.0);
    lp.add_constraint(std::move(c));
  }
  return lp;
}

/// Partition-formulation-shaped instance: 0/1 indicators, `knapsacks`
/// dense capacity rows (CPU, RAM, ROM, net in the real formulation),
/// monotone f_u >= f_v edge rows. `integral` keeps the integrality
/// markers (MIP family) or relaxes them (LP family).
inline LinearProgram gen_partition_shaped(std::uint32_t seed, bool integral,
                                          int n_override = 0,
                                          int knapsacks = 3) {
  std::mt19937 rng(seed);
  const int n =
      n_override > 0 ? n_override : 8 + static_cast<int>(rng() % 13);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    if (integral) {
      lp.add_binary("f" + std::to_string(j), grid(rng, -3.0, 3.0));
    } else {
      lp.add_variable("f" + std::to_string(j), 0.0, 1.0,
                      grid(rng, -3.0, 3.0), false);
    }
  }
  for (int r = 0; r < knapsacks; ++r) {
    Constraint c;
    for (int j = 0; j < n; ++j) {
      c.terms.emplace_back(j, grid(rng, 0.05, 1.0) + 0.05);
    }
    c.rel = Relation::kLe;
    c.rhs = 0.35 * n;
    lp.add_constraint(std::move(c));
  }
  for (int e = 0; e < n; ++e) {
    const int u = static_cast<int>(rng() % n);
    const int v = static_cast<int>(rng() % n);
    if (u == v) continue;
    Constraint c;
    c.terms = {{u, 1.0}, {v, -1.0}};
    c.rel = Relation::kGe;
    c.rhs = 0.0;
    lp.add_constraint(std::move(c));
  }
  return lp;
}

/// Market-split-shaped MIP: 0/1 variables split between two equality
/// knapsack rows at half their total weight. The LP bound is weak and
/// the feasible set combinatorially symmetric, so branch and bound
/// must genuinely dig (hundreds to thousands of nodes at n ≈ 20) —
/// the family that keeps every worker of a parallel solve busy, where
/// the partition-shaped instances above prove out in a handful of
/// nodes.
inline LinearProgram gen_market_split(std::uint32_t seed, int n = 20,
                                      int rows = 2) {
  std::mt19937 rng(seed);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    const double c =
        std::round(static_cast<double>(rng() % 129) - 64.0) / 64.0;
    lp.add_binary("x" + std::to_string(j), c);
  }
  for (int r = 0; r < rows; ++r) {
    Constraint row;
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      const double w = 1.0 + static_cast<double>(rng() % 16);
      row.terms.emplace_back(j, w);
      total += w;
    }
    row.rel = Relation::kEq;
    row.rhs = std::floor(total / 2.0);
    lp.add_constraint(std::move(row));
  }
  return lp;
}

}  // namespace wishbone::ilp::testgen
