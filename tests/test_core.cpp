#include <gtest/gtest.h>

#include "apps/speech.hpp"
#include "core/wishbone.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;

TEST(Core, GumstixFitsAtFullRate) {
  // §7.3.1: the whole speech app was predicted at ~11.5% CPU on the
  // Gumstix — it must fit at the full rate with everything on the node.
  apps::SpeechApp app = apps::build_speech_app();
  core::Wishbone wb(app.g, profile::gumstix());
  const auto rep = wb.compile(apps::speech_traces(app, 80), 80,
                              apps::SpeechApp::kFullRateEventsPerSec);
  ASSERT_TRUE(rep.feasible_at_requested_rate) << rep.message;
  EXPECT_FALSE(rep.max_sustainable_rate.has_value());
  // CPU usage in the ~5-25% band around the paper's 11.5% prediction.
  EXPECT_GT(rep.partition.cpu_used, 0.02);
  EXPECT_LT(rep.partition.cpu_used, 0.30);
  EXPECT_EQ(rep.partition.sides.size(), app.g.num_operators());
}

TEST(Core, TmoteOverloadTriggersRateSearch) {
  apps::SpeechApp app = apps::build_speech_app();
  core::Wishbone wb(app.g, profile::tmote_sky());
  const auto rep = wb.compile(apps::speech_traces(app, 80), 80,
                              apps::SpeechApp::kFullRateEventsPerSec);
  EXPECT_FALSE(rep.feasible_at_requested_rate);
  ASSERT_TRUE(rep.max_sustainable_rate.has_value()) << rep.message;
  // §7.3.1: binary search found ~3 events/s; our calibration lands in
  // the same low-single-digit regime.
  EXPECT_GT(*rep.max_sustainable_rate, 1.0);
  EXPECT_LT(*rep.max_sustainable_rate, 8.0);
  // At that rate the cut sits right after the filter bank (cut 4).
  ASSERT_TRUE(rep.partition.feasible);
  EXPECT_EQ(rep.partition.sides[app.filtbank], graph::Side::kNode);
  EXPECT_EQ(rep.partition.sides[app.logs], graph::Side::kServer);
  EXPECT_NE(rep.message.find("maximum sustainable rate"),
            std::string::npos);
}

TEST(Core, MerakiShipsRawData) {
  // §7.3: "for the Meraki the optimal partitioning falls at cut point
  // 1: send the raw data directly back to the server."
  apps::SpeechApp app = apps::build_speech_app();
  core::Wishbone wb(app.g, profile::meraki_mini());
  const auto rep = wb.compile(apps::speech_traces(app, 80), 80,
                              apps::SpeechApp::kFullRateEventsPerSec);
  ASSERT_TRUE(rep.feasible_at_requested_rate) << rep.message;
  // Nothing but the pinned source remains on the node.
  std::size_t on_node = 0;
  for (auto s : rep.partition.sides) on_node += s == graph::Side::kNode;
  EXPECT_EQ(on_node, 1u);
}

TEST(Core, DotVisualizationProduced) {
  apps::SpeechApp app = apps::build_speech_app();
  core::Wishbone wb(app.g, profile::gumstix());
  const auto rep = wb.compile(apps::speech_traces(app, 40), 40, 40.0);
  EXPECT_NE(rep.dot.find("digraph"), std::string::npos);
  EXPECT_NE(rep.dot.find("cepstrals"), std::string::npos);
  EXPECT_NE(rep.dot.find("B/s"), std::string::npos);
  EXPECT_NE(rep.dot.find("shape=box"), std::string::npos);
}

TEST(Core, PartitionOnlyReusesProfile) {
  apps::SpeechApp app = apps::build_speech_app();
  profile::Profiler prof(app.g);
  const auto pd = prof.run(apps::speech_traces(app, 40), 40);
  app.g.reset_state();
  core::Wishbone wb(app.g, profile::tmote_sky());
  // Sweep rates without re-profiling; node partition shrinks as the
  // rate grows (Fig. 5 shape).
  const auto slow = wb.partition_only(pd, 0.5);
  const auto fast = wb.partition_only(pd, 3.0);
  ASSERT_TRUE(slow.feasible_at_requested_rate);
  ASSERT_TRUE(fast.feasible_at_requested_rate);
  EXPECT_GE(slow.partition.node_partition_size,
            fast.partition.node_partition_size);
}

TEST(Core, OverloadSolvesTheRequestedRateOnce) {
  // The rate search's first probe is the requested-rate solve, so an
  // overloaded compile costs exactly the solves of the search itself.
  apps::SpeechApp app = apps::build_speech_app();
  profile::Profiler prof(app.g);
  const auto pd = prof.run(apps::speech_traces(app, 40), 40);
  app.g.reset_state();
  const profile::PlatformModel plat = profile::tmote_sky();
  const double rate = apps::SpeechApp::kFullRateEventsPerSec;
  const core::CompileOptions opts;
  core::Wishbone wb(app.g, plat, opts);
  const std::string name = "wishbone_partition_solves";
  auto solves = [&] {
    return wbtest::exported(name, {{"path", "closure"}}) +
           wbtest::exported(name, {{"path", "bnb"}});
  };

  const double before = solves();
  const auto rep = wb.partition_only(pd, rate);
  const double compile_solves = solves() - before;
  ASSERT_FALSE(rep.feasible_at_requested_rate);
  ASSERT_TRUE(rep.max_sustainable_rate.has_value()) << rep.message;

  partition::RateSearchOptions rs;
  rs.partition = opts.partition;
  rs.min_rate = rate / 4096.0;
  rs.max_rate = rate;
  rs.rel_tol = opts.rate_search_rel_tol;
  const auto pins = graph::analyze_pins(app.g, opts.mode);
  const double mid = solves();
  auto problem_at = [&](double r) {
    return partition::make_problem(app.g, pins, pd, plat, r);
  };
  const auto found = partition::max_sustainable_rate(problem_at, rs);
  EXPECT_EQ(compile_solves, solves() - mid);
  EXPECT_EQ(compile_solves, static_cast<double>(found.partitions_solved));
  EXPECT_EQ(*rep.max_sustainable_rate, found.max_rate);
}

TEST(Core, InvalidGraphRejected) {
  graph::Graph g;
  EXPECT_THROW(core::Wishbone(g, profile::gumstix()),
               util::ContractError);
}

TEST(Core, HopelessPinnedLoadReported) {
  // A graph whose pinned node work alone exceeds any budget at any
  // rate: compile() must say so rather than recommend a rate.
  graph::GraphBuilder b;
  graph::Stream s;
  {
    auto node = b.node_scope();
    s = b.source("src", nullptr);
  }
  auto sink = b.sink("main", s);
  (void)sink;
  graph::Graph g = b.build();
  // Source output: huge frames; net budget can never carry them, and
  // there is nothing to move. Use a platform with a tiny radio.
  core::Wishbone wb(g, profile::tmote_sky());
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[g.find("src")] = {graph::Frame(
      std::vector<float>(100000, 1.0f), graph::Encoding::kInt16)};
  const auto rep = wb.compile(traces, 1, 1000.0);
  EXPECT_FALSE(rep.feasible_at_requested_rate);
  EXPECT_FALSE(rep.max_sustainable_rate.has_value());
  EXPECT_NE(rep.message.find("no rate admits a partition"),
            std::string::npos);
}
