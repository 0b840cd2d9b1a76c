// Tests for the paper-sanctioned extensions: RAM/ROM budget rows in
// the ILP (§4.2.1) and peak-load profiling (§4).
#include <gtest/gtest.h>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "partition/baselines.hpp"
#include "partition/partitioner.hpp"
#include "profile/profiler.hpp"
#include "test_helpers.hpp"

using namespace wishbone;
using namespace wishbone::partition;

namespace {

ProblemVertex vtx(const char* name, double cpu, double ram,
                  Requirement req) {
  ProblemVertex v;
  v.name = name;
  v.cpu = cpu;
  v.ram_bytes = ram;
  v.rom_bytes = 100.0;
  v.req = req;
  return v;
}

/// src -> big(cheap cpu, huge ram) -> small(pricier cpu, tiny ram) -> sink
PartitionProblem memory_chain() {
  PartitionProblem p;
  p.vertices = {vtx("src", 0.0, 50.0, Requirement::kNode),
                vtx("big", 0.1, 6000.0, Requirement::kMovable),
                vtx("small", 0.2, 100.0, Requirement::kMovable),
                vtx("sink", 0.0, 0.0, Requirement::kServer)};
  p.edges = {ProblemEdge{0, 1, 100.0}, ProblemEdge{1, 2, 50.0},
             ProblemEdge{2, 3, 10.0}};
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  return p;
}

}  // namespace

TEST(MemoryBudget, UnconstrainedByDefault) {
  const PartitionResult r = solve_partition(memory_chain());
  ASSERT_TRUE(r.feasible);
  // Plenty of everything: the whole chain runs on the node.
  EXPECT_NEAR(r.net_used, 10.0, 1e-9);
  EXPECT_NEAR(r.ram_used, 6150.0, 1e-9);
}

TEST(MemoryBudget, RamBudgetExcludesBigOperator) {
  PartitionProblem p = memory_chain();
  p.ram_budget = 1000.0;  // big (6 kB) cannot fit
  const PartitionResult r = solve_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.ram_used, 1000.0 + 1e-9);
  // Without 'big' on the node, the cut must pay the raw edge.
  EXPECT_NEAR(r.net_used, 100.0, 1e-9);
}

TEST(MemoryBudget, RomBudgetLimitsOperatorCount) {
  PartitionProblem p = memory_chain();
  p.rom_budget = 150.0;  // src (100) + at most nothing else
  const PartitionResult r = solve_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.rom_used, 150.0 + 1e-9);
  EXPECT_NEAR(r.net_used, 100.0, 1e-9);
}

TEST(MemoryBudget, InfeasibleWhenPinnedStateTooBig) {
  PartitionProblem p = memory_chain();
  p.ram_budget = 10.0;  // even the pinned source (50 B) won't fit
  const PartitionResult r = solve_partition(p);
  EXPECT_FALSE(r.feasible);
}

TEST(MemoryBudget, MatchesExhaustiveUnderBudgets) {
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    PartitionProblem p = wbtest::random_problem(seed);
    for (std::size_t v = 0; v < p.vertices.size(); ++v) {
      p.vertices[v].ram_bytes = 100.0 * static_cast<double>(v + 1);
      p.vertices[v].rom_bytes = 50.0;
    }
    p.ram_budget = 800.0;
    const PartitionResult ilp = solve_partition(p);
    const BaselineResult truth = exhaustive_partition(p);
    ASSERT_EQ(ilp.feasible, truth.feasible) << "seed " << seed;
    if (truth.feasible) {
      EXPECT_NEAR(ilp.objective, truth.objective,
                  1e-6 * (1.0 + truth.objective))
          << "seed " << seed;
    }
  }
}

TEST(MemoryBudget, TmoteRamBoundsTheEegNodePartition) {
  // The 8 kB TMote cannot hold the whole per-channel cascade state at
  // once; the partitioner must respect that even with idle CPU.
  apps::EegConfig cfg;
  cfg.channels = 2;
  apps::EegApp app = apps::build_eeg_app(cfg);
  profile::Profiler prof(app.g);
  const auto pd = prof.run(apps::eeg_traces(app, 4), 4);
  app.g.reset_state();
  const auto r = partition_graph(app.g, pd, profile::tmote_sky(),
                                 app.full_rate_events_per_sec() / 8.0);
  if (r.feasible) {
    EXPECT_LE(r.ram_used, profile::tmote_sky().ram_budget_bytes + 1e-6);
  }
}

TEST(PeakLoad, PeakAtLeastMean) {
  apps::SpeechApp app = apps::build_speech_app();
  profile::Profiler prof(app.g);
  const auto pd = prof.run(apps::speech_traces(app, 50), 50);
  const auto mote = profile::tmote_sky();
  for (graph::OperatorId v : app.pipeline_order()) {
    EXPECT_GE(pd.peak_micros_per_event(mote, v) + 1e-9,
              pd.micros_per_event(mote, v))
        << app.g.info(v).name;
  }
  for (std::size_t ei = 0; ei < app.g.num_edges(); ++ei) {
    EXPECT_GE(pd.peak_bandwidth(ei, 1.0) + 1e-9, pd.bandwidth(ei, 1.0));
  }
}

TEST(PeakLoad, BurstyOperatorShowsPeakAboveMean) {
  // An operator that only works on every 4th frame: mean is ~1/4 of
  // peak.
  graph::GraphBuilder b;
  graph::Stream out;
  {
    auto node = b.node_scope();
    auto src = b.source("src", nullptr);
    out = b.stateful(
        "burst", src,
        std::make_unique<graph::StatelessOp<
            std::function<void(const graph::Frame&, graph::Context&)>>>(
            [n = 0](const graph::Frame& f, graph::Context& c) mutable {
              if (++n % 4 == 0) {
                if (auto* m = c.cost_meter()) m->charge_float(4000);
                c.emit(f);
              }
            }));
  }
  b.sink("main", out);
  graph::Graph g = b.build();

  profile::Profiler prof(g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[g.find("src")] = wbtest::int_frames(40, 8);
  const auto pd = prof.run(traces, 40);
  const auto plat = profile::gumstix();
  const auto burst = g.find("burst");
  EXPECT_GT(pd.peak_micros_per_event(plat, burst),
            3.0 * pd.micros_per_event(plat, burst));
}

TEST(PeakLoad, PeakProblemIsMoreConservative) {
  apps::SpeechApp app = apps::build_speech_app();
  profile::Profiler prof(app.g);
  const auto pd = prof.run(apps::speech_traces(app, 50), 50);
  app.g.reset_state();
  const auto pins = graph::analyze_pins(app.g, graph::Mode::kPermissive);
  const auto mote = profile::tmote_sky();
  const auto mean_p =
      make_problem(app.g, pins, pd, mote, 2.0, LoadStatistic::kMean);
  const auto peak_p =
      make_problem(app.g, pins, pd, mote, 2.0, LoadStatistic::kPeak);
  for (std::size_t v = 0; v < mean_p.num_vertices(); ++v) {
    EXPECT_GE(peak_p.vertices[v].cpu + 1e-12, mean_p.vertices[v].cpu);
  }
}
