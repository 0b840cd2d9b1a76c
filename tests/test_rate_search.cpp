#include <gtest/gtest.h>

#include <cmath>

#include "apps/eeg.hpp"
#include "core/wishbone.hpp"
#include "graph/pinning.hpp"
#include "partition/rate_search.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"
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

TEST(RateSearch, Eeg22GridKeepsMaxRatesAndHalvesNodes) {
  // EEG-22 on TMoteSky at the e2e rate grid (native x 16^{k/6}, k = 1,
  // 3, 5) with 100-node solves. Feasibility probes plus one optimizing
  // solve at the final rate must find the maximum rates that optimizing
  // probes found, exactly, in at most half their branch-and-bound nodes.
  // Each search makes one solve more than it has probes: the final one.
  // The x10.08 search has one probe censored with no cut, which counts
  // as infeasible. Node and solve counts are the search's own, so they
  // hold on every host.
  struct Row {
    int k;
    double max_rate;                   ///< optimizing probes' answer
    std::size_t nodes_all_optimizing;  ///< their total_bnb_nodes
    std::size_t solves;
    std::size_t probes_censored;
    double objective;                  ///< of partition_at_max
  };
  const Row rows[] = {
      {1, 0.055212309066261012, 508, 14, 0, 1197.8862575015994},
      {3, 0.055162429809570312, 410, 15, 0, 1196.8040771484375},
      {5, 0.055046884349727099, 808, 17, 1, 1197.8202034500621},
  };
  apps::EegApp app = apps::build_eeg_app();  // 22 channels
  profile::Profiler prof(app.g);
  const auto pd = prof.run(apps::eeg_traces(app, 8), 8);
  app.g.reset_state();
  const profile::PlatformModel plat = profile::tmote_sky();
  const auto pins = graph::analyze_pins(app.g, core::CompileOptions::mode);
  auto problem_at = [&](double r) {
    return make_problem(app.g, pins, pd, plat, r);
  };
  for (const Row& row : rows) {
    const double rate =
        app.full_rate_events_per_sec() * std::pow(16.0, row.k / 6.0);
    RateSearchOptions opts;
    opts.partition.mip.max_nodes = 100;
    opts.min_rate = rate / 4096.0;
    opts.max_rate = rate;
    opts.rel_tol = core::CompileOptions::rate_search_rel_tol;
    const auto res = max_sustainable_rate(problem_at, opts);
    const std::string label = "k=" + std::to_string(row.k);
    ASSERT_TRUE(res.any_feasible) << label;
    EXPECT_EQ(res.max_rate, row.max_rate) << label;
    const PartitionProblem at_max = problem_at(res.max_rate);
    ASSERT_TRUE(res.partition_at_max.feasible) << label;
    EXPECT_TRUE(evaluate_assignment(at_max, res.partition_at_max.sides)
                    .feasible(at_max))
        << label;
    EXPECT_NEAR(res.partition_at_max.objective, row.objective,
                1e-9 * row.objective)
        << label;
    EXPECT_LE(res.total_bnb_nodes, row.nodes_all_optimizing / 2) << label;
    EXPECT_EQ(res.partitions_solved, row.solves) << label;
    EXPECT_EQ(res.probes_censored, row.probes_censored) << label;
  }
}
