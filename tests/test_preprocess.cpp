#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "graph/pinning.hpp"
#include "partition/baselines.hpp"
#include "partition/partitioner.hpp"
#include "partition/preprocess.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"
#include "test_helpers.hpp"

using namespace wishbone;
using namespace wishbone::partition;

namespace {

ProblemVertex vtx(const char* name, double cpu, Requirement req) {
  ProblemVertex v;
  v.name = name;
  v.cpu = cpu;
  v.req = req;
  return v;
}

/// src(bw 10) -> neutral(bw 10) -> reducer(bw 2) -> sink
PartitionProblem neutral_chain() {
  PartitionProblem p;
  p.vertices = {vtx("src", 0.0, Requirement::kNode),
                vtx("neutral", 0.2, Requirement::kMovable),
                vtx("reducer", 0.3, Requirement::kMovable),
                vtx("sink", 0.0, Requirement::kServer)};
  p.edges = {ProblemEdge{0, 1, 10.0}, ProblemEdge{1, 2, 10.0},
             ProblemEdge{2, 3, 2.0}};
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  p.alpha = 0.0;
  p.beta = 1.0;
  return p;
}

}  // namespace

TEST(Preprocess, MergesDataNeutralOperatorDownstream) {
  PreprocessStats st;
  const PartitionProblem out = preprocess(neutral_chain(), &st);
  // 'neutral' never reduces data, so the edge neutral->reducer can
  // never be a better cut than src->neutral: they merge.
  EXPECT_EQ(out.num_vertices(), 3u);
  EXPECT_EQ(st.vertices_before, 4u);
  EXPECT_EQ(st.vertices_after, 3u);
  bool found_cluster = false;
  for (const auto& v : out.vertices) {
    if (v.ops.size() == 2) {
      found_cluster = true;
      EXPECT_NEAR(v.cpu, 0.5, 1e-12);  // summed CPU
    }
  }
  EXPECT_TRUE(found_cluster);
}

TEST(Preprocess, KeepsDataReducingBoundary) {
  const PartitionProblem out = preprocess(neutral_chain());
  // The reducer's output edge (bandwidth 2 < in 10) must survive as a
  // cut candidate.
  bool has_cheap_edge = false;
  for (const auto& e : out.edges) {
    if (e.bandwidth == 2.0) has_cheap_edge = true;
  }
  EXPECT_TRUE(has_cheap_edge);
}

TEST(Preprocess, DataExpandingOperatorMerged) {
  PartitionProblem p;
  p.vertices = {vtx("src", 0.0, Requirement::kNode),
                vtx("expander", 0.1, Requirement::kMovable),
                vtx("sink", 0.0, Requirement::kServer)};
  p.edges = {ProblemEdge{0, 1, 4.0}, ProblemEdge{1, 2, 16.0}};
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  const PartitionProblem out = preprocess(p);
  // expander merges with the sink; cutting after it is never optimal.
  EXPECT_EQ(out.num_vertices(), 2u);
}

TEST(Preprocess, DoesNotMergeAcrossRequiredCut) {
  // node-pinned u feeding server-pinned v: that edge must stay.
  PartitionProblem p;
  p.vertices = {vtx("u", 0.1, Requirement::kNode),
                vtx("v", 0.1, Requirement::kServer)};
  p.edges = {ProblemEdge{0, 1, 5.0}};
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  const PartitionProblem out = preprocess(p);
  EXPECT_EQ(out.num_vertices(), 2u);
  EXPECT_EQ(out.num_edges(), 1u);
}

TEST(Preprocess, NodePinnedNeutralNotMergedWithMovable) {
  // u is node-pinned and data-neutral; cutting u->v may still be the
  // only/optimal cut, so no merge is allowed.
  PartitionProblem p;
  p.vertices = {vtx("src", 0.0, Requirement::kNode),
                vtx("u", 0.5, Requirement::kNode),
                vtx("v", 0.5, Requirement::kMovable),
                vtx("sink", 0.0, Requirement::kServer)};
  p.edges = {ProblemEdge{0, 1, 4.0}, ProblemEdge{1, 2, 4.0},
             ProblemEdge{2, 3, 4.0}};
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  const PartitionProblem out = preprocess(p);
  // u must not merge with v (though v may merge with the sink, since v
  // is itself data-neutral).
  for (const auto& v : out.vertices) {
    if (v.ops.size() > 1) {
      // the only legal cluster is {v, sink}
      EXPECT_EQ(v.req, Requirement::kServer);
    }
  }
}

TEST(Preprocess, ChainsCollapseToFixedPoint) {
  // Five neutral ops in a row all collapse into the final reducer.
  PartitionProblem p;
  p.vertices.push_back(vtx("src", 0.0, Requirement::kNode));
  for (int i = 0; i < 5; ++i) {
    p.vertices.push_back(vtx(("n" + std::to_string(i)).c_str(), 0.1,
                             Requirement::kMovable));
  }
  p.vertices.push_back(vtx("reduce", 0.1, Requirement::kMovable));
  p.vertices.push_back(vtx("sink", 0.0, Requirement::kServer));
  for (std::size_t i = 0; i + 1 < p.vertices.size(); ++i) {
    const double bw = (i + 2 == p.vertices.size()) ? 1.0 : 10.0;
    p.edges.push_back(ProblemEdge{i, i + 1, bw});
  }
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  PreprocessStats st;
  const PartitionProblem out = preprocess(p, &st);
  // src | {n0..n4, reduce} merged | sink stays separate? The merged
  // cluster's output edge (bw 1) survives as the only interior cut.
  EXPECT_LE(out.num_vertices(), 4u);
  EXPECT_GE(st.rounds, 2u);
}

// The load-bearing property (§4.1 "reducing the search space without
// eliminating optimal solutions"): preprocessing must never change the
// optimal objective.
class PreprocessOptimality : public ::testing::TestWithParam<int> {};

TEST_P(PreprocessOptimality, PreservesOptimalObjective) {
  const PartitionProblem p = wbtest::random_problem(GetParam(), 3, 3);

  PartitionOptions with, without;
  with.preprocess = true;
  without.preprocess = false;
  const PartitionResult a = solve_partition(p, with);
  const PartitionResult b = solve_partition(p, without);
  ASSERT_EQ(a.feasible, b.feasible);
  if (a.feasible) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6 * (1.0 + b.objective));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessOptimality,
                         ::testing::Range(1, 25));

namespace {

/// FNV-1a over everything preprocess produces: per vertex its name,
/// requirement, op list and weights (by bit pattern), then the edges in
/// order with their bandwidths (by bit pattern).
std::uint64_t preprocess_digest(const PartitionProblem& q) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto byte = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ull;
  };
  auto word = [&byte](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(w >> (8 * i)));
    }
  };
  auto real = [&word](double d) { word(std::bit_cast<std::uint64_t>(d)); };
  word(q.vertices.size());
  for (const ProblemVertex& v : q.vertices) {
    word(v.name.size());
    for (char c : v.name) byte(static_cast<unsigned char>(c));
    word(static_cast<std::uint64_t>(v.req));
    word(v.ops.size());
    for (OperatorId op : v.ops) word(op);
    real(v.cpu);
    real(v.ram_bytes);
    real(v.rom_bytes);
  }
  word(q.edges.size());
  for (const ProblemEdge& e : q.edges) {
    word(e.from);
    word(e.to);
    real(e.bandwidth);
  }
  return h;
}

/// The profiled problem of an application at `rate` on `platform`.
PartitionProblem profiled_problem(
    graph::Graph& g,
    const std::map<OperatorId, std::vector<graph::Frame>>& traces,
    std::size_t events, const char* platform, double rate) {
  profile::Profiler prof(g);
  const profile::ProfileData pd = prof.run(traces, events);
  g.reset_state();
  const graph::PinAnalysis pins =
      graph::analyze_pins(g, graph::Mode::kPermissive);
  return make_problem(g, pins, pd, profile::platform_by_name(platform), rate);
}

}  // namespace

TEST(Preprocess, OutputOnPaperAppsIsUnchanged) {
  // Digests of the condensed EEG-22 / EEG-8 (Gumstix) and speech
  // (TMoteSky) problems, recorded before preprocess was rewritten to
  // build each round in one pass: names, op lists, requirements,
  // summed weights and edge order must all stay bit-identical, which
  // keeps every ILP built from them identical too.
  for (std::size_t channels : {22u, 8u}) {
    apps::EegConfig cfg;
    cfg.channels = channels;
    apps::EegApp e = apps::build_eeg_app(cfg);
    const auto traces = apps::eeg_traces(e, 8);
    const PartitionProblem p = profiled_problem(
        e.g, traces, 8, "Gumstix", e.full_rate_events_per_sec());
    const std::uint64_t want =
        channels == 22 ? 0x1c62ec789907c6efull : 0x9f6527207d9c7527ull;
    EXPECT_EQ(preprocess_digest(preprocess(p)), want)
        << "EEG-" << channels;
  }
  apps::SpeechApp s = apps::build_speech_app();
  const auto traces = apps::speech_traces(s, 40);
  const PartitionProblem p =
      profiled_problem(s.g, traces, 40, "TMoteSky",
                       apps::SpeechApp::kFullRateEventsPerSec);
  EXPECT_EQ(preprocess_digest(preprocess(p)), 0xd752902156573b58ull);
}
