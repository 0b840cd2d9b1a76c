#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "apps/fig3.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/simplex.hpp"
#include "partition/formulation.hpp"
#include "test_helpers.hpp"

using namespace wishbone;
using namespace wishbone::partition;

TEST(Formulation, RestrictedVariableCountMatchesPaper) {
  // §4.2.1: the restricted formulation has |V| variables and at most
  // |E| + |V| + 1 constraints (variable bounds don't count as rows).
  const PartitionProblem p = apps::fig3_problem();
  const auto lp = build_ilp(p, Formulation::kRestricted);
  EXPECT_EQ(lp.num_variables(), static_cast<int>(p.num_vertices()));
  EXPECT_LE(lp.num_constraints(),
            static_cast<int>(p.num_edges() + p.num_vertices() + 1));
}

TEST(Formulation, GeneralVariableCountMatchesPaper) {
  // §4.2.1: 2|E| + |V| variables, at most 4|E| + |V| + 1 constraints
  // (our e variables carry their nonnegativity in bounds).
  const PartitionProblem p = apps::fig3_problem();
  const auto lp = build_ilp(p, Formulation::kGeneral);
  EXPECT_EQ(lp.num_variables(),
            static_cast<int>(p.num_vertices() + 2 * p.num_edges()));
  EXPECT_LE(lp.num_constraints(),
            static_cast<int>(4 * p.num_edges() + p.num_vertices() + 1));
}

TEST(Formulation, PinsBecomeBounds) {
  const PartitionProblem p = apps::fig3_problem();
  const auto lp = build_ilp(p, Formulation::kRestricted);
  // Sources (vertices 0, 1) fixed to 1; sink (vertex 6) fixed to 0.
  EXPECT_DOUBLE_EQ(lp.lower(0), 1.0);
  EXPECT_DOUBLE_EQ(lp.upper(0), 1.0);
  EXPECT_DOUBLE_EQ(lp.lower(6), 0.0);
  EXPECT_DOUBLE_EQ(lp.upper(6), 0.0);
  // Movables are genuine binaries.
  EXPECT_DOUBLE_EQ(lp.lower(2), 0.0);
  EXPECT_DOUBLE_EQ(lp.upper(2), 1.0);
  EXPECT_TRUE(lp.is_integer(2));
}

TEST(Formulation, RestrictedModelFoldsNetworkIntoObjectiveInEdgeOrder) {
  // The restricted model, term by term: objective alpha*cpu_v +
  // beta*(out_v - in_v) with the bandwidths accumulated in edge order
  // (bit for bit), and rows cpu, ram, rom, one monotone row per edge,
  // net.
  auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (std::uint32_t seed = 0; seed < 20; ++seed) {
    PartitionProblem p = wbtest::random_problem(seed, 4, 4);
    for (std::size_t v = 0; v < p.num_vertices(); ++v) {
      p.vertices[v].ram_bytes = 16.0 + static_cast<double>(v);
      p.vertices[v].rom_bytes = 100.0 + 3.0 * static_cast<double>(v);
    }
    p.ram_budget = 1e4;
    p.rom_budget = 1e5;
    p.alpha = 0.3;
    p.beta = 0.7;
    const auto lp = build_ilp(p, Formulation::kRestricted);
    const std::size_t n = p.num_vertices();

    std::vector<double> net(n, 0.0);
    for (const ProblemEdge& e : p.edges) {
      net[e.from] += e.bandwidth;
      net[e.to] -= e.bandwidth;
    }
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(bits(lp.objective_coeff(static_cast<int>(v))),
                bits(p.alpha * p.vertices[v].cpu + p.beta * net[v]))
          << "seed=" << seed << " v=" << v;
    }

    const auto& rows = lp.constraints();
    ASSERT_EQ(rows.size(), p.num_edges() + 4) << "seed=" << seed;
    EXPECT_EQ(rows[0].name, "cpu_budget");
    EXPECT_EQ(rows[1].name, "ram_budget");
    EXPECT_EQ(rows[2].name, "rom_budget");
    for (std::size_t ei = 0; ei < p.num_edges(); ++ei) {
      const ProblemEdge& e = p.edges[ei];
      const ilp::Constraint& c = rows[3 + ei];
      EXPECT_EQ(c.name, "mono_" + std::to_string(ei));
      EXPECT_EQ(c.rel, ilp::Relation::kGe);
      EXPECT_EQ(c.rhs, 0.0);
      const std::vector<std::pair<int, double>> terms = {
          {static_cast<int>(e.from), 1.0}, {static_cast<int>(e.to), -1.0}};
      EXPECT_EQ(c.terms, terms);
    }
    const ilp::Constraint& nr = rows.back();
    EXPECT_EQ(nr.name, "net_budget");
    std::vector<std::pair<int, double>> net_terms;
    for (std::size_t v = 0; v < n; ++v) {
      if (net[v] != 0.0) net_terms.emplace_back(static_cast<int>(v), net[v]);
    }
    ASSERT_EQ(nr.terms.size(), net_terms.size());
    for (std::size_t t = 0; t < net_terms.size(); ++t) {
      EXPECT_EQ(nr.terms[t].first, net_terms[t].first);
      EXPECT_EQ(bits(nr.terms[t].second), bits(net_terms[t].second));
    }
  }
}

TEST(Formulation, DecodeThresholdsAtHalf) {
  const PartitionProblem p = apps::fig3_problem();
  std::vector<double> x(p.num_vertices(), 0.0);
  x[0] = 1.0;
  x[2] = 0.7;
  x[3] = 0.4;
  const auto sides = decode_solution(p, x);
  EXPECT_EQ(sides[0], Side::kNode);
  EXPECT_EQ(sides[2], Side::kNode);
  EXPECT_EQ(sides[3], Side::kServer);
}

// On unidirectional instances the two formulations must agree: the
// restricted model is exact whenever data flows one way (§4.2.1).
class FormulationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FormulationEquivalence, RestrictedEqualsGeneralOnDags) {
  const PartitionProblem p = wbtest::random_problem(GetParam(), 3, 2);
  ilp::BranchAndBound bnb;
  const auto restricted = bnb.solve(build_ilp(p, Formulation::kRestricted));
  const auto general = bnb.solve(build_ilp(p, Formulation::kGeneral));
  ASSERT_EQ(restricted.status, general.status);
  if (restricted.status == ilp::SolveStatus::kOptimal) {
    EXPECT_NEAR(restricted.objective, general.objective,
                1e-6 * (1.0 + std::fabs(general.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulationEquivalence,
                         ::testing::Range(1, 21));

TEST(Formulation, GeneralHandlesBackwardFlow) {
  // A graph that *requires* back-and-forth: node-pinned consumer of a
  // server-pinned producer. The restricted model cannot express it;
  // the general one charges both crossings.
  PartitionProblem p;
  ProblemVertex src;
  src.name = "src";
  src.req = Requirement::kNode;
  ProblemVertex server_op;
  server_op.name = "srv";
  server_op.req = Requirement::kServer;
  ProblemVertex actuator;
  actuator.name = "led";
  actuator.req = Requirement::kNode;
  actuator.cpu = 0.1;
  p.vertices = {src, server_op, actuator};
  p.edges = {ProblemEdge{0, 1, 5.0}, ProblemEdge{1, 2, 3.0}};
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  p.alpha = 0.0;
  p.beta = 1.0;

  ilp::BranchAndBound bnb;
  const auto general = bnb.solve(build_ilp(p, Formulation::kGeneral));
  ASSERT_EQ(general.status, ilp::SolveStatus::kOptimal);
  EXPECT_NEAR(general.objective, 8.0, 1e-6);  // both edges cross

  const auto restricted = bnb.solve(build_ilp(p, Formulation::kRestricted));
  EXPECT_EQ(restricted.status, ilp::SolveStatus::kInfeasible);
}

TEST(ThresholdRound, MonotoneRelaxationRoundsFeasibly) {
  const PartitionProblem p = apps::fig3_problem();
  const auto lp = build_ilp(p, Formulation::kRestricted);
  const auto relax = ilp::SimplexState(lp).solve();
  ASSERT_EQ(relax.status, ilp::SolveStatus::kOptimal);
  const auto rounded = threshold_round(p, relax.x);
  ASSERT_TRUE(rounded.has_value());
  // The rounded assignment is binary and feasible.
  const auto sides = decode_solution(p, *rounded);
  const auto ev = evaluate_assignment(p, sides);
  EXPECT_TRUE(ev.respects_pins);
  EXPECT_TRUE(ev.unidirectional);
  EXPECT_TRUE(ev.feasible(p));
}

TEST(ThresholdRound, RespectsTightCpuBudget) {
  PartitionProblem p = apps::fig3_problem();
  p.cpu_budget = 0.0;  // only the zero-cost pinned vertices fit
  std::vector<double> relax(p.num_vertices(), 0.9);
  const auto rounded = threshold_round(p, relax);
  ASSERT_TRUE(rounded.has_value());
  const auto ev = evaluate_assignment(p, decode_solution(p, *rounded));
  EXPECT_LE(ev.cpu, 1e-9);
}
