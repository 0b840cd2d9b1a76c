#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <string>

#include "ilp/branch_and_bound.hpp"
#include "lp_generators.hpp"
#include "util/assert.hpp"

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

namespace {

/// One pinned serial walk: the instance (generator, seed, node budget)
/// and what the search reports at the end of it.
struct PinnedWalk {
  enum Family { kPartition, kMarket, kSmallMarket } family;
  std::uint32_t seed;
  std::size_t max_nodes;
  SolveStatus status;
  std::size_t nodes;
  std::size_t lp_iterations;
  std::size_t fixed;
  std::size_t incumbents;
  double objective;
};

LinearProgram pinned_instance(const PinnedWalk& w) {
  switch (w.family) {
    case PinnedWalk::kPartition:
      return testgen::gen_partition_shaped(w.seed, /*integral=*/true);
    case PinnedWalk::kMarket:
      return testgen::gen_market_split(w.seed);
    case PinnedWalk::kSmallMarket:
      return testgen::gen_market_split(w.seed, /*n=*/12);
  }
  return {};
}

}  // namespace

TEST(BranchAndBound, SerialWalkIsPinned) {
  // The exact walk of the best-first search: heap order, pruning before
  // the LP, the node budget counted at the LP solve, reduced-cost
  // fixing and the incumbent timeline all move at least one of these
  // counters when they change. Node and iteration counts are the
  // search's own (no clock), so they are identical on every host. A
  // change that moves a row changes the walk and must say why.
  constexpr std::size_t kAll = 1'000'000;
  constexpr SolveStatus kOpt = SolveStatus::kOptimal;
  constexpr SolveStatus kInf = SolveStatus::kInfeasible;
  constexpr SolveStatus kCap = SolveStatus::kIterationLimit;
  const PinnedWalk walks[] = {
      {PinnedWalk::kPartition, 9100, kAll, kOpt, 5, 25, 6, 1, -19.59375},
      {PinnedWalk::kPartition, 9101, kAll, kOpt, 1, 4, 0, 1, -7.046875},
      {PinnedWalk::kPartition, 9102, kAll, kOpt, 1, 4, 0, 1, -2.78125},
      {PinnedWalk::kPartition, 9103, kAll, kOpt, 5, 37, 0, 1, -10.953125},
      {PinnedWalk::kPartition, 9104, kAll, kOpt, 5, 17, 5, 1, -9.171875},
      {PinnedWalk::kPartition, 9105, kAll, kOpt, 33, 187, 14, 3, -12.96875},
      {PinnedWalk::kPartition, 9106, kAll, kOpt, 3, 20, 0, 1, -11.734375},
      {PinnedWalk::kPartition, 9107, kAll, kOpt, 1, 10, 0, 1, -10.953125},
      {PinnedWalk::kPartition, 9108, kAll, kOpt, 3, 9, 0, 1, -5.40625},
      {PinnedWalk::kPartition, 9109, kAll, kOpt, 3, 11, 0, 1, -10.53125},
      {PinnedWalk::kMarket, 9200, kAll, kOpt, 269, 717, 359, 1, -4.0625},
      {PinnedWalk::kMarket, 9201, kAll, kOpt, 5, 19, 17, 1, -2.515625},
      {PinnedWalk::kMarket, 9202, kAll, kOpt, 169, 570, 222, 2, -3.484375},
      {PinnedWalk::kMarket, 9203, kAll, kOpt, 261, 859, 231, 2, -1.59375},
      {PinnedWalk::kMarket, 9204, kAll, kOpt, 1023, 2971, 1070, 2, -1.78125},
      // An infeasible tree: exhausted, so proved infeasible.
      {PinnedWalk::kSmallMarket, 9312, kAll, kInf, 395, 1041, 0, 0, 0.0},
      // Node-capped walks: censored at exactly the budget, with and
      // without an incumbent; 9201 proves before the cap.
      {PinnedWalk::kMarket, 9200, 60, kCap, 60, 234, 16, 1, -4.0625},
      {PinnedWalk::kMarket, 9201, 60, kOpt, 5, 19, 17, 1, -2.515625},
      {PinnedWalk::kMarket, 9202, 60, kCap, 60, 246, 0, 0, 0.0},
  };
  for (const PinnedWalk& w : walks) {
    const std::string label = "family=" + std::to_string(w.family) +
                              " seed=" + std::to_string(w.seed) +
                              " max_nodes=" + std::to_string(w.max_nodes);
    MipOptions opts;
    opts.lp.refactor_interval = 16;
    opts.max_nodes = w.max_nodes;
    const MipResult r = BranchAndBound().solve(pinned_instance(w), opts);
    EXPECT_EQ(r.status, w.status) << label;
    EXPECT_EQ(r.nodes_explored, w.nodes) << label;
    EXPECT_EQ(r.lp_iterations, w.lp_iterations) << label;
    EXPECT_EQ(r.total.vars_fixed_by_reduced_cost, w.fixed) << label;
    EXPECT_EQ(r.incumbents.size(), w.incumbents) << label;
    EXPECT_NEAR(r.objective, w.objective, 1e-9) << label;
  }
}

TEST(BranchAndBound, FirstIncumbentStopMatchesFullWalk) {
  // stop_at_first_incumbent cuts the walk short without changing it: on
  // the 19 instances of SerialWalkIsPinned the early run returns the
  // full run's first incumbent, from the same node, and claims a proof
  // only when that node left nothing open.
  constexpr std::size_t kAll = 1'000'000;
  std::vector<PinnedWalk> walks;
  for (std::uint32_t seed = 9100; seed < 9110; ++seed) {
    walks.push_back({PinnedWalk::kPartition, seed, kAll});
  }
  for (std::uint32_t seed = 9200; seed < 9205; ++seed) {
    walks.push_back({PinnedWalk::kMarket, seed, kAll});
  }
  walks.push_back({PinnedWalk::kSmallMarket, 9312, kAll});
  for (std::uint32_t seed = 9200; seed < 9203; ++seed) {
    walks.push_back({PinnedWalk::kMarket, seed, 60});
  }
  ASSERT_EQ(walks.size(), 19u);
  std::size_t cut_short = 0;
  for (const PinnedWalk& w : walks) {
    const std::string label = "family=" + std::to_string(w.family) +
                              " seed=" + std::to_string(w.seed) +
                              " max_nodes=" + std::to_string(w.max_nodes);
    MipOptions opts;
    opts.lp.refactor_interval = 16;
    opts.max_nodes = w.max_nodes;
    const LinearProgram lp = pinned_instance(w);
    const MipResult full = BranchAndBound().solve(lp, opts);
    opts.stop_at_first_incumbent = true;
    const MipResult early = BranchAndBound().solve(lp, opts);

    EXPECT_LE(early.nodes_explored, full.nodes_explored) << label;
    ASSERT_EQ(early.has_incumbent, full.has_incumbent) << label;
    if (!full.has_incumbent) {
      // Nothing to stop at: the early run is the full run.
      EXPECT_EQ(early.status, full.status) << label;
      EXPECT_EQ(early.nodes_explored, full.nodes_explored) << label;
      continue;
    }
    ASSERT_FALSE(early.incumbents.empty()) << label;
    EXPECT_NEAR(early.incumbents.front().objective,
                full.incumbents.front().objective, 1e-9)
        << label;
    EXPECT_EQ(early.incumbents.front().node, full.incumbents.front().node)
        << label;
    EXPECT_EQ(early.nodes_explored, early.incumbents.front().node) << label;
    if (early.status == SolveStatus::kOptimal) {
      // Proved only by exhausting the tree: the full run ends there too.
      EXPECT_EQ(early.nodes_explored, full.nodes_explored) << label;
      EXPECT_EQ(full.status, SolveStatus::kOptimal) << label;
    } else {
      EXPECT_EQ(early.status, SolveStatus::kIterationLimit) << label;
      ++cut_short;
    }
  }
  EXPECT_GT(cut_short, 0u);
}

TEST(BranchAndBound, SerialIsBitReproducible) {
  // The push/pop sequence is deterministic (ties resolve by the heap's
  // sift order): two runs must take the identical walk.
  for (std::uint32_t seed = 9100; seed < 9110; ++seed) {
    const LinearProgram lp =
        testgen::gen_partition_shaped(seed, /*integral=*/true);
    MipOptions opts;
    opts.lp.refactor_interval = 16;
    const MipResult a = BranchAndBound().solve(lp, opts);
    const MipResult b = BranchAndBound().solve(lp, opts);
    ASSERT_EQ(a.status, b.status) << "seed=" << seed;
    EXPECT_EQ(a.nodes_explored, b.nodes_explored) << "seed=" << seed;
    EXPECT_EQ(a.lp_iterations, b.lp_iterations) << "seed=" << seed;
    EXPECT_EQ(a.objective, b.objective) << "seed=" << seed;  // bitwise
    EXPECT_EQ(a.best_bound, b.best_bound) << "seed=" << seed;
    EXPECT_EQ(a.incumbents.size(), b.incumbents.size()) << "seed=" << seed;
  }
}

TEST(BranchAndBound, ThreadsOtherThanOneThrow) {
  // The search is serial; MipOptions::threads survives only as a field
  // that must read 1.
  const LinearProgram lp =
      testgen::gen_partition_shaped(9100, /*integral=*/true);
  for (std::size_t threads : {0u, 2u}) {
    MipOptions opts;
    opts.threads = threads;
    EXPECT_THROW((void)BranchAndBound().solve(lp, opts),
                 wishbone::util::ContractError)
        << "threads=" << threads;
  }
}

namespace {

/// `lp` with the first term of row 0 dropped: the same shape (variable
/// and row counts) but another constraint structure.
LinearProgram restructured(const LinearProgram& lp) {
  LinearProgram out;
  for (int v = 0; v < lp.num_variables(); ++v) {
    (void)out.add_variable(lp.variable_name(v), lp.lower(v), lp.upper(v),
                           lp.objective_coeff(v), lp.is_integer(v));
  }
  for (std::size_t r = 0; r < lp.constraints().size(); ++r) {
    Constraint c = lp.constraints()[r];
    if (r == 0) c.terms.erase(c.terms.begin());
    out.add_constraint(std::move(c));
  }
  return out;
}

void expect_same_answer(const MipResult& want, const MipResult& got,
                        const LinearProgram& lp, const std::string& label) {
  ASSERT_EQ(want.status, got.status) << label;
  ASSERT_EQ(want.has_incumbent, got.has_incumbent) << label;
  if (!want.has_incumbent) return;
  const double tol = 1e-6 * std::max(1.0, std::fabs(want.objective));
  EXPECT_NEAR(want.objective, got.objective, tol) << label;
  if (want.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(want.best_bound, got.best_bound, tol) << label;
  }
  EXPECT_LE(lp.max_violation(got.x), 1e-5)
      << label << ": the solve returned an infeasible incumbent";
}

}  // namespace

TEST(BranchAndBound, StructureRejectedWarmBasisColdStarts) {
  // A donor basis from a structurally different model of the same
  // shape: load_basis turns it away, and the solve gives the cold
  // solve's answer.
  const LinearProgram lp =
      testgen::gen_partition_shaped(9950, /*integral=*/true);
  const LinearProgram other = restructured(lp);
  ASSERT_NE(other.structure_hash(), lp.structure_hash());
  MipOptions opts;
  opts.lp.refactor_interval = 16;
  const MipResult donor = BranchAndBound().solve(other, opts);
  ASSERT_FALSE(donor.final_basis.empty());
  const MipResult cold = BranchAndBound().solve(lp, opts);
  opts.warm_basis = donor.final_basis;
  const MipResult r = BranchAndBound().solve(lp, opts);
  EXPECT_TRUE(r.warm_basis_rejected);
  EXPECT_EQ(r.warm_basis_reject_reason, BasisRejectReason::kStructure);
  EXPECT_FALSE(r.warm_basis_loaded);
  expect_same_answer(cold, r, lp, "rejected basis");
}

TEST(BranchAndBound, WarmBasisLoads) {
  // A basis inherited from a previous structurally identical solve
  // loads, reports as loaded, and leaves the answer unchanged.
  const LinearProgram lp =
      testgen::gen_partition_shaped(9950, /*integral=*/true);
  MipOptions opts;
  opts.lp.refactor_interval = 16;
  const MipResult first = BranchAndBound().solve(lp, opts);
  ASSERT_FALSE(first.final_basis.empty());
  opts.warm_basis = first.final_basis;
  const MipResult r = BranchAndBound().solve(lp, opts);
  EXPECT_TRUE(r.warm_basis_loaded);
  EXPECT_FALSE(r.warm_basis_rejected);
  EXPECT_EQ(r.warm_basis_reject_reason, BasisRejectReason::kNone);
  expect_same_answer(first, r, lp, "warm basis");
}
