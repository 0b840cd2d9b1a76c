#include <gtest/gtest.h>

#include "apps/fig3.hpp"
#include "partition/problem.hpp"
#include "profile/profiler.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::partition;
using wishbone::util::ContractError;

TEST(Problem, CheckRejectsBadInstances) {
  PartitionProblem p;
  EXPECT_THROW(p.check(), ContractError);  // empty

  p = apps::fig3_problem();
  p.edges[0].from = 99;
  EXPECT_THROW(p.check(), ContractError);  // bad endpoint

  p = apps::fig3_problem();
  p.vertices[0].cpu = -1.0;
  EXPECT_THROW(p.check(), ContractError);  // negative weight

  p = apps::fig3_problem();
  p.edges.push_back(ProblemEdge{2, 2, 1.0});
  EXPECT_THROW(p.check(), ContractError);  // self loop
}

TEST(Problem, TopoOrderDetectsCycle) {
  PartitionProblem p = apps::fig3_problem();
  // a1 -> a2 exists; close a cycle a2 -> a1.
  p.edges.push_back(ProblemEdge{3, 2, 1.0});
  EXPECT_THROW((void)p.topo_order(), ContractError);

  // A cycle in a component with no source at all.
  PartitionProblem q = apps::fig3_problem();
  const std::size_t a = q.vertices.size();
  q.vertices.resize(a + 2);
  q.edges.push_back(ProblemEdge{a, a + 1, 1.0});
  q.edges.push_back(ProblemEdge{a + 1, a, 1.0});
  EXPECT_THROW((void)q.topo_order(), ContractError);
  EXPECT_THROW(q.check(), ContractError);
}

TEST(Problem, TopoOrderIsKahnInFifoOrder) {
  // Reference: Kahn's algorithm with a FIFO of ready vertices, each
  // vertex's successors taken in edge order.
  for (std::uint32_t seed = 0; seed < 30; ++seed) {
    const PartitionProblem p = wbtest::random_problem(seed, 5, 4);
    const std::size_t n = p.num_vertices();
    std::vector<std::size_t> indeg(n, 0);
    for (const ProblemEdge& e : p.edges) ++indeg[e.to];
    std::vector<std::size_t> ref;
    for (std::size_t v = 0; v < n; ++v) {
      if (indeg[v] == 0) ref.push_back(v);
    }
    for (std::size_t head = 0; head < ref.size(); ++head) {
      for (const ProblemEdge& e : p.edges) {
        if (e.from == ref[head] && --indeg[e.to] == 0) ref.push_back(e.to);
      }
    }
    EXPECT_EQ(p.topo_order(), ref) << "seed=" << seed;
  }
}

TEST(Problem, InOutBandwidth) {
  const PartitionProblem p = apps::fig3_problem();
  // a1 (index 2): in 4 from s1, out 2 to a2.
  EXPECT_DOUBLE_EQ(p.in_bandwidth(2), 4.0);
  EXPECT_DOUBLE_EQ(p.out_bandwidth(2), 2.0);
  // sink (index 6): in 1 + 1.
  EXPECT_DOUBLE_EQ(p.in_bandwidth(6), 2.0);
  EXPECT_DOUBLE_EQ(p.out_bandwidth(6), 0.0);
}

TEST(Evaluate, AllServerCutsRawStreams) {
  const PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  sides[0] = sides[1] = Side::kNode;  // pinned sources
  const AssignmentEval ev = evaluate_assignment(p, sides);
  EXPECT_TRUE(ev.respects_pins);
  EXPECT_TRUE(ev.unidirectional);
  EXPECT_DOUBLE_EQ(ev.net, 8.0);  // both raw edges cut
  EXPECT_DOUBLE_EQ(ev.cpu, 0.0);
  EXPECT_DOUBLE_EQ(objective_of(p, ev), 8.0);
}

TEST(Evaluate, PinViolationsDetected) {
  const PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  // Sources forced to server: violates pins.
  EXPECT_FALSE(evaluate_assignment(p, sides).respects_pins);
}

TEST(Evaluate, BackwardEdgeFlagsNonUnidirectional) {
  const PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  sides[0] = sides[1] = Side::kNode;
  sides[3] = Side::kNode;  // a2 on node but a1 on server: server->node
  const AssignmentEval ev = evaluate_assignment(p, sides);
  EXPECT_FALSE(ev.unidirectional);
}

TEST(Evaluate, FeasibilityAgainstBudgets) {
  PartitionProblem p = apps::fig3_problem();
  std::vector<Side> sides(p.num_vertices(), Side::kServer);
  sides[0] = sides[1] = Side::kNode;
  sides[2] = Side::kNode;  // a1: cpu 3
  AssignmentEval ev = evaluate_assignment(p, sides);
  p.cpu_budget = 2.0;
  EXPECT_FALSE(ev.feasible(p));
  p.cpu_budget = 3.0;
  EXPECT_TRUE(ev.feasible(p));
  p.net_budget = 1.0;  // cut is 2 + 4 = 6 > 1
  EXPECT_FALSE(ev.feasible(p));
}

TEST(MakeProblem, FromProfiledGraph) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[t.src] = wbtest::int_frames(5, 8);
  const auto pd = prof.run(traces, 5);
  const auto pins = graph::analyze_pins(t.g, graph::Mode::kPermissive);
  const auto plat = profile::tmote_sky();
  const PartitionProblem p = make_problem(t.g, pins, pd, plat, 10.0);

  ASSERT_EQ(p.num_vertices(), t.g.num_operators());
  ASSERT_EQ(p.num_edges(), t.g.num_edges());
  EXPECT_EQ(p.vertices[t.src].req, Requirement::kNode);
  EXPECT_EQ(p.vertices[t.sink].req, Requirement::kServer);
  EXPECT_EQ(p.vertices[t.dbl].req, Requirement::kMovable);
  EXPECT_DOUBLE_EQ(p.cpu_budget, plat.cpu_budget);
  EXPECT_DOUBLE_EQ(p.net_budget, plat.radio_bytes_per_sec);
  // Bandwidths: src->dbl carries 16 B/event * 10 events/s.
  for (std::size_t ei = 0; ei < p.edges.size(); ++ei) {
    if (p.edges[ei].from == t.src) {
      EXPECT_DOUBLE_EQ(p.edges[ei].bandwidth, 160.0);
    }
  }
  // CPU fractions are consistent with the profile.
  EXPECT_NEAR(p.vertices[t.dbl].cpu, pd.cpu_fraction(plat, t.dbl, 10.0),
              1e-15);
  // Each vertex maps back to its own operator.
  EXPECT_EQ(p.vertices[t.dbl].ops, std::vector<graph::OperatorId>{t.dbl});
}

TEST(MakeProblem, RejectsNonPositiveRate) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[t.src] = wbtest::int_frames(2, 8);
  const auto pd = prof.run(traces, 2);
  const auto pins = graph::analyze_pins(t.g, graph::Mode::kPermissive);
  EXPECT_THROW(
      (void)make_problem(t.g, pins, pd, profile::tmote_sky(), 0.0),
      ContractError);
}

TEST(ExpandAssignment, MapsClustersToOperators) {
  PartitionProblem p;
  ProblemVertex a;
  a.name = "a+b";
  a.ops = {0, 2};
  ProblemVertex b;
  b.name = "c";
  b.ops = {1};
  p.vertices = {a, b};
  const auto sides = expand_assignment(
      p, {Side::kNode, Side::kServer}, 3);
  EXPECT_EQ(sides[0], Side::kNode);
  EXPECT_EQ(sides[2], Side::kNode);
  EXPECT_EQ(sides[1], Side::kServer);
}

TEST(ExpandAssignment, VertexWithoutOpsStandsForItself) {
  PartitionProblem p;
  p.vertices.resize(2);
  p.vertices[1].ops = {2};
  EXPECT_EQ(op_ids(p, 0).size(), 1u);
  EXPECT_EQ(op_ids(p, 0).front(), 0u);
  const auto sides = expand_assignment(p, {Side::kNode, Side::kNode}, 3);
  EXPECT_EQ(sides[0], Side::kNode);
  EXPECT_EQ(sides[1], Side::kServer);
  EXPECT_EQ(sides[2], Side::kNode);
}

TEST(RandomProblemGenerator, ProducesValidInstances) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    const PartitionProblem p = wbtest::random_problem(seed);
    EXPECT_NO_THROW(p.check());
    EXPECT_GE(p.num_vertices(), 3u);
  }
}
