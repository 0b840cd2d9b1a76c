#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "ilp/branch_and_bound.hpp"

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

/// 0/1 knapsack: maximize value subject to one weight row. Solved by
/// the MIP (negated objective) and checked against exhaustive search.
struct Knapsack {
  std::vector<double> value;
  std::vector<double> weight;
  double cap;
};

double knapsack_brute_force(const Knapsack& k) {
  const std::size_t n = k.value.size();
  double best = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    double v = 0.0, w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        v += k.value[i];
        w += k.weight[i];
      }
    }
    if (w <= k.cap) best = std::max(best, v);
  }
  return best;
}

MipResult solve_knapsack(const Knapsack& k, const MipOptions& opts = {}) {
  LinearProgram lp;
  Constraint row;
  for (std::size_t i = 0; i < k.value.size(); ++i) {
    const int v = lp.add_binary("x" + std::to_string(i), -k.value[i]);
    row.terms.emplace_back(v, k.weight[i]);
  }
  row.rel = Relation::kLe;
  row.rhs = k.cap;
  lp.add_constraint(row);
  return BranchAndBound().solve(lp, opts);
}

}  // namespace

TEST(BranchAndBound, TinyIntegerProblem) {
  // max x + y s.t. 2x + y <= 3, x,y binary -> x=1, y=1.
  LinearProgram lp;
  const int x = lp.add_binary("x", -1.0);
  const int y = lp.add_binary("y", -1.0);
  lp.add_constraint(make({{x, 2.0}, {y, 1.0}}, Relation::kLe, 3.0));
  const auto res = BranchAndBound().solve(lp);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.objective, -2.0, 1e-6);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
}

TEST(BranchAndBound, FractionalLpForcedIntegral) {
  // LP relaxation would take x = 2.5; the MIP must settle on 2.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 10.0, -1.0, true);
  lp.add_constraint(make({{x, 2.0}}, Relation::kLe, 5.0));
  const auto res = BranchAndBound().solve(lp);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.x[0], 2.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleReported) {
  LinearProgram lp;
  const int x = lp.add_binary("x", 1.0);
  lp.add_constraint(make({{x, 1.0}}, Relation::kGe, 2.0));
  const auto res = BranchAndBound().solve(lp);
  EXPECT_EQ(res.status, SolveStatus::kInfeasible);
  EXPECT_FALSE(res.has_incumbent);
}

// Parameterized: random knapsacks vs brute force.
class KnapsackVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackVsBruteForce, MatchesExhaustive) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> val(1.0, 10.0);
  std::uniform_real_distribution<double> wt(1.0, 5.0);
  Knapsack k;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    k.value.push_back(val(rng));
    k.weight.push_back(wt(rng));
  }
  k.cap = 0.4 * n * 3.0;

  const auto res = solve_knapsack(k);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(-res.objective, knapsack_brute_force(k), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackVsBruteForce, ::testing::Range(1, 9));

TEST(BranchAndBound, IncumbentTimelineImproves) {
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> val(1.0, 10.0);
  Knapsack k;
  for (int i = 0; i < 14; ++i) {
    k.value.push_back(val(rng));
    k.weight.push_back(val(rng));
  }
  k.cap = 25.0;
  MipOptions opts;
  // The empty knapsack is feasible and the worst cut, so the search
  // must improve on it at least once: the timeline holds several
  // incumbents. The rounding hook offers it at the root, where it
  // becomes the first incumbent.
  const std::vector<double> empty(k.value.size(), 0.0);
  opts.rounding_hook = [&empty](const std::vector<double>&) {
    return std::optional<std::vector<double>>(empty);
  };
  const auto res = solve_knapsack(k, opts);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  ASSERT_GE(res.incumbents.size(), 2u);
  EXPECT_EQ(res.incumbents.front().node, 1u);
  EXPECT_NEAR(res.incumbents.front().objective, 0.0, 1e-12);
  for (std::size_t i = 1; i < res.incumbents.size(); ++i) {
    EXPECT_LT(res.incumbents[i].objective,
              res.incumbents[i - 1].objective);
    EXPECT_GE(res.incumbents[i].time_s, res.incumbents[i - 1].time_s);
  }
  EXPECT_LE(res.time_to_first_incumbent, res.time_to_best_incumbent);
  EXPECT_LE(res.time_to_best_incumbent, res.time_total);
  EXPECT_NEAR(res.gap(), 0.0, 1e-9);
}

TEST(BranchAndBound, NodeLimitReportsLimit) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> val(1.0, 10.0);
  Knapsack k;
  for (int i = 0; i < 16; ++i) {
    k.value.push_back(val(rng));
    k.weight.push_back(val(rng));
  }
  k.cap = 30.0;
  MipOptions opts;
  opts.max_nodes = 2;
  const auto res = solve_knapsack(k, opts);
  EXPECT_EQ(res.status, SolveStatus::kIterationLimit);
  EXPECT_LE(res.nodes_explored, 2u);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // max 3x + 2y, x binary, y continuous in [0, 1.5], x + y <= 2.
  LinearProgram lp;
  const int x = lp.add_binary("x", -3.0);
  const int y = lp.add_variable("y", 0.0, 1.5, -2.0, false);
  lp.add_constraint(make({{x, 1.0}, {y, 1.0}}, Relation::kLe, 2.0));
  const auto res = BranchAndBound().solve(lp);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
  EXPECT_NEAR(res.objective, -5.0, 1e-6);
}
