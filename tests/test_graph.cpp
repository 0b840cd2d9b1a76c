#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/cost_meter.hpp"
#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using graph::Graph;
using graph::Namespace;
using graph::OperatorId;
using graph::OperatorInfo;
using wishbone::util::ContractError;

namespace {

OperatorInfo src_info(const std::string& name) {
  OperatorInfo i;
  i.name = name;
  i.ns = Namespace::kNode;
  i.is_source = true;
  i.side_effects = true;
  i.num_inputs = 0;
  return i;
}

OperatorInfo mid_info(const std::string& name, std::size_t inputs = 1) {
  OperatorInfo i;
  i.name = name;
  i.ns = Namespace::kNode;
  i.num_inputs = inputs;
  return i;
}

OperatorInfo sink_info(const std::string& name) {
  OperatorInfo i;
  i.name = name;
  i.ns = Namespace::kServer;
  i.is_sink = true;
  i.side_effects = true;
  i.num_inputs = 1;
  return i;
}

Graph chain3() {
  Graph g;
  const auto s = g.add_operator(src_info("s"), nullptr);
  const auto a = g.add_operator(mid_info("a"), nullptr);
  const auto t = g.add_operator(sink_info("t"), nullptr);
  g.connect(s, a);
  g.connect(a, t);
  return g;
}

}  // namespace

TEST(Graph, AddAndQuery) {
  Graph g = chain3();
  EXPECT_EQ(g.num_operators(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.info(0).name, "s");
  EXPECT_TRUE(g.info(0).is_source);
  EXPECT_TRUE(g.info(2).is_sink);
  EXPECT_EQ(g.sources(), std::vector<OperatorId>{0});
  EXPECT_EQ(g.sinks(), std::vector<OperatorId>{2});
}

TEST(Graph, ConnectContractViolations) {
  Graph g = chain3();
  EXPECT_THROW(g.connect(0, 0), ContractError);      // self loop
  EXPECT_THROW(g.connect(1, 0), ContractError);      // into source
  EXPECT_THROW(g.connect(2, 1), ContractError);      // out of sink
  EXPECT_THROW(g.connect(0, 1), ContractError);      // port already wired
  EXPECT_THROW(g.connect(0, 99), ContractError);     // bad id
  EXPECT_THROW(g.connect(0, 1, 5), ContractError);   // bad port
}

TEST(Graph, SourceMustDeclareZeroInputs) {
  Graph g;
  OperatorInfo bad = src_info("s");
  bad.num_inputs = 1;
  EXPECT_THROW(g.add_operator(bad, nullptr), ContractError);
  OperatorInfo server_src = src_info("s2");
  server_src.ns = Namespace::kServer;
  EXPECT_THROW(g.add_operator(server_src, nullptr), ContractError);
}

TEST(Graph, TopoOrderRespectsEdges) {
  Graph g = chain3();
  const auto order = g.topo_order();
  ASSERT_EQ(order.size(), 3u);
  std::vector<std::size_t> pos(3);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& e : g.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

TEST(Graph, ValidateAcceptsChain) {
  EXPECT_EQ(chain3().validate(), std::nullopt);
}

TEST(Graph, ValidateRejectsMissingInput) {
  Graph g;
  g.add_operator(src_info("s"), nullptr);
  g.add_operator(mid_info("a", 2), nullptr);  // second input never wired
  const auto t = g.add_operator(sink_info("t"), nullptr);
  g.connect(0, 1, 0);
  g.connect(1, t);
  const auto err = g.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("a"), std::string::npos);
}

TEST(Graph, ValidateRejectsDisconnected) {
  Graph g = chain3();
  g.add_operator(mid_info("stray"), nullptr);  // no edges at all
  const auto err = g.validate();
  ASSERT_TRUE(err.has_value());
}

TEST(Graph, ValidateRejectsEmptyAndSourceless) {
  Graph g;
  EXPECT_TRUE(g.validate().has_value());
}

TEST(Graph, AncestorsDescendants) {
  Graph g;
  const auto s = g.add_operator(src_info("s"), nullptr);
  const auto a = g.add_operator(mid_info("a"), nullptr);
  const auto b = g.add_operator(mid_info("b"), nullptr);
  const auto j = g.add_operator(mid_info("j", 2), nullptr);
  const auto t = g.add_operator(sink_info("t"), nullptr);
  g.connect(s, a);
  g.connect(s, b);
  g.connect(a, j, 0);
  g.connect(b, j, 1);
  g.connect(j, t);
  EXPECT_EQ(g.descendants(s), (std::vector<OperatorId>{a, b, j, t}));
  EXPECT_EQ(g.ancestors(j), (std::vector<OperatorId>{s, a, b}));
  EXPECT_TRUE(g.descendants(t).empty());
  EXPECT_TRUE(g.ancestors(s).empty());
}

TEST(Graph, FindByName) {
  Graph g = chain3();
  EXPECT_EQ(g.find("a"), 1u);
  EXPECT_THROW((void)g.find("nope"), ContractError);
  g.add_operator(mid_info("a"), nullptr);
  EXPECT_THROW((void)g.find("a"), ContractError);  // ambiguous
}

TEST(Graph, CloneDeepCopiesState) {
  wbtest::TinyApp t = wbtest::tiny_app();
  Graph copy = t.g.clone();
  EXPECT_EQ(copy.num_operators(), t.g.num_operators());
  EXPECT_EQ(copy.num_edges(), t.g.num_edges());
  // Impl pointers must differ (deep copy), except null source impls.
  EXPECT_NE(copy.impl(t.dbl), t.g.impl(t.dbl));
  EXPECT_EQ(copy.impl(t.src), nullptr);
}

TEST(Builder, NamespaceScoping) {
  wbtest::TinyApp t = wbtest::tiny_app();
  EXPECT_EQ(t.g.info(t.dbl).ns, Namespace::kNode);
  EXPECT_EQ(t.g.info(t.sink).ns, Namespace::kServer);
}

TEST(Builder, SourceOutsideNodeScopeThrows) {
  graph::GraphBuilder b;
  EXPECT_THROW((void)b.source("s", nullptr), ContractError);
}

TEST(Builder, BuildTwiceThrows) {
  wbtest::TinyApp t = wbtest::tiny_app();  // uses its own builder
  graph::GraphBuilder b;
  graph::Stream s;
  {
    auto node = b.node_scope();
    s = b.source("s", nullptr);
  }
  b.sink("t", s);
  (void)b.build();
  EXPECT_THROW((void)b.build(), ContractError);
}

TEST(Builder, JoinRequiresTwoInputs) {
  graph::GraphBuilder b;
  auto node = b.node_scope();
  auto s = b.source("s", nullptr);
  EXPECT_THROW((void)b.join("j", {s}, nullptr), ContractError);
}

TEST(CostMeter, TotalsAccumulate) {
  graph::CostMeter m;
  m.charge_int(3);
  m.charge_float(5);
  m.charge_trans(2);
  m.charge_mem(100);
  m.charge_branch(7);
  m.charge_emit();
  EXPECT_EQ(m.totals().int_ops, 3u);
  EXPECT_EQ(m.totals().float_ops, 5u);
  EXPECT_EQ(m.totals().trans_ops, 2u);
  EXPECT_EQ(m.totals().mem_bytes, 100u);
  EXPECT_EQ(m.totals().branches, 7u);
  EXPECT_EQ(m.totals().emits, 1u);
  m.reset();
  EXPECT_TRUE(m.totals().is_zero());
}

TEST(CostMeter, LoopAttribution) {
  graph::CostMeter m;
  m.charge_float(1);  // outside any loop
  m.loop_begin();
  m.loop_iteration(10);
  m.charge_float(20);
  m.loop_end();
  ASSERT_EQ(m.loops().size(), 1u);
  EXPECT_EQ(m.loops()[0].iterations, 10u);
  EXPECT_EQ(m.loops()[0].body.float_ops, 20u);
  EXPECT_EQ(m.totals().float_ops, 21u);
}

TEST(CostMeter, NestedLoops) {
  graph::CostMeter m;
  m.begin_invocation();
  m.loop_begin();
  m.charge_int(1);
  m.loop_begin();
  m.charge_int(2);
  m.loop_end();
  m.loop_end();
  ASSERT_EQ(m.loops().size(), 2u);
  // Inner loop charges attribute to the innermost open loop only.
  EXPECT_EQ(m.loops()[0].body.int_ops, 1u);
  EXPECT_EQ(m.loops()[1].body.int_ops, 2u);
  EXPECT_EQ(m.totals().int_ops, 3u);

  // A second run of the same code charges the same two sites.
  m.begin_invocation();
  m.loop_begin();
  m.loop_iteration(3);
  m.charge_int(10);
  m.loop_begin();
  m.loop_iteration(5);
  m.charge_int(20);
  m.loop_end();
  m.loop_end();
  ASSERT_EQ(m.loops().size(), 2u);
  EXPECT_EQ(m.loops()[0].iterations, 3u);
  EXPECT_EQ(m.loops()[0].body.int_ops, 11u);
  EXPECT_EQ(m.loops()[1].iterations, 5u);
  EXPECT_EQ(m.loops()[1].body.int_ops, 22u);
  EXPECT_EQ(m.totals().int_ops, 33u);
  EXPECT_EQ(m.invocations(), 2u);

  m.reset();
  EXPECT_EQ(m.invocations(), 0u);
  EXPECT_TRUE(m.loops().empty());
}

TEST(CostMeter, LoopMisuseThrows) {
  graph::CostMeter m;
  EXPECT_THROW(m.loop_end(), ContractError);
  EXPECT_THROW(m.loop_iteration(), ContractError);
  m.loop_begin();
  EXPECT_THROW(m.begin_invocation(), ContractError);
}

TEST(Dot, RendersNodesEdgesAndOptions) {
  Graph g = chain3();
  graph::DotOptions opts;
  opts.heat = std::vector<double>{0.0, 1.0, 0.5};
  opts.assignment = std::vector<graph::Side>{
      graph::Side::kNode, graph::Side::kNode, graph::Side::kServer};
  opts.edge_labels = std::vector<std::string>{"100 B/s", "10 B/s"};
  const std::string dot = graph::to_dot(g, opts);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // node side
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);  // server side
  EXPECT_NE(dot.find("100 B/s"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  // Cold vertex (heat 0) renders pure blue, hot (heat 1) pure red.
  EXPECT_NE(dot.find("#0000ff"), std::string::npos);
  EXPECT_NE(dot.find("#ff0000"), std::string::npos);
}

TEST(Dot, SizeMismatchThrows) {
  Graph g = chain3();
  graph::DotOptions opts;
  opts.heat = std::vector<double>{0.1};
  EXPECT_THROW((void)graph::to_dot(g, opts), ContractError);
}
