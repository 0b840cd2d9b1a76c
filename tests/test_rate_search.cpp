#include <gtest/gtest.h>

#include "partition/rate_search.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::partition;
using wishbone::util::ContractError;

namespace {

/// A one-knob problem: a single movable operator whose CPU fraction is
/// rate/knee. Feasible iff rate <= knee (shipping raw data is blocked
/// by a tiny net budget, so the operator must run on the node).
PartitionProblem scaled_problem(double rate, double knee) {
  PartitionProblem p;
  ProblemVertex src;
  src.name = "src";
  src.req = graph::Requirement::kNode;
  ProblemVertex worker;
  worker.name = "work";
  worker.req = graph::Requirement::kMovable;
  worker.cpu = rate / knee;
  ProblemVertex sink;
  sink.name = "sink";
  sink.req = graph::Requirement::kServer;
  p.vertices = {src, worker, sink};
  p.edges = {ProblemEdge{0, 1, 100.0 * rate}, ProblemEdge{1, 2, rate}};
  p.cpu_budget = 1.0;
  p.net_budget = 50.0 * knee;  // raw stream never fits, reduced does
  p.alpha = 0.0;
  p.beta = 1.0;
  return p;
}

}  // namespace

TEST(RateSearch, FindsKnee) {
  const double knee = 7.0;
  RateSearchOptions opts;
  opts.min_rate = 0.01;
  opts.max_rate = 1000.0;
  opts.rel_tol = 0.001;
  const auto res = max_sustainable_rate(
      [&](double r) { return scaled_problem(r, knee); }, opts);
  ASSERT_TRUE(res.any_feasible);
  EXPECT_NEAR(res.max_rate, knee, 0.05 * knee);
  EXPECT_TRUE(res.partition_at_max.feasible);
  EXPECT_GT(res.partitions_solved, 5u);
}

TEST(RateSearch, AllFeasibleReturnsTopOfBracket) {
  RateSearchOptions opts;
  opts.min_rate = 0.1;
  opts.max_rate = 5.0;
  const auto res = max_sustainable_rate(
      [&](double r) { return scaled_problem(r, 1e9); }, opts);
  ASSERT_TRUE(res.any_feasible);
  EXPECT_DOUBLE_EQ(res.max_rate, 5.0);
  EXPECT_EQ(res.partitions_solved, 1u);  // fast path
}

TEST(RateSearch, NothingFeasible) {
  RateSearchOptions opts;
  opts.min_rate = 10.0;
  opts.max_rate = 100.0;
  const auto res = max_sustainable_rate(
      [&](double r) { return scaled_problem(r, 1.0); }, opts);
  EXPECT_FALSE(res.any_feasible);
  EXPECT_DOUBLE_EQ(res.max_rate, 0.0);
}

TEST(RateSearch, ResultRespectsTolerance) {
  const double knee = 42.0;
  RateSearchOptions opts;
  opts.min_rate = 1.0;
  opts.max_rate = 1000.0;
  opts.rel_tol = 0.01;
  const auto res = max_sustainable_rate(
      [&](double r) { return scaled_problem(r, knee); }, opts);
  ASSERT_TRUE(res.any_feasible);
  // Found rate is feasible (never overshoots the knee).
  EXPECT_LE(res.max_rate, knee * (1.0 + 1e-9));
  EXPECT_GE(res.max_rate, knee * 0.95);
}

TEST(RateSearch, ZeroToleranceStopsAtAdjacentRates) {
  // With rel_tol 0 the bracket closes to adjacent doubles, where a
  // midpoint can only repeat an end point: the search stops there, and
  // every probe after the first stays strictly below max_rate.
  const double knee = 7.0;
  RateSearchOptions opts;
  opts.min_rate = 0.01;
  opts.max_rate = 1000.0;
  opts.rel_tol = 0.0;
  opts.max_iterations = 500;
  const auto res = max_sustainable_rate(
      [&](double r) { return scaled_problem(r, knee); }, opts);
  ASSERT_TRUE(res.any_feasible);
  EXPECT_LT(res.max_rate, opts.max_rate);
  EXPECT_NEAR(res.max_rate, knee, 0.05 * knee);
  EXPECT_LT(res.partitions_solved, 100u);
}

TEST(RateSearch, BadBracketThrows) {
  RateSearchOptions opts;
  opts.min_rate = 10.0;
  opts.max_rate = 5.0;
  EXPECT_THROW((void)max_sustainable_rate(
                   [&](double r) { return scaled_problem(r, 1.0); }, opts),
               ContractError);
}
