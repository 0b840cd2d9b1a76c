#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/radio.hpp"
#include "runtime/fleet_sim.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::runtime;

namespace {

/// source(pinned) -> filter -> classify -> sink(pinned): a small chain
/// whose cut can sit anywhere, with bandwidths decreasing downstream
/// (the paper's data-reducing pipelines).
partition::PartitionProblem chain_problem() {
  partition::PartitionProblem p;
  auto add = [&](const char* name, double cpu, graph::Requirement req) {
    partition::ProblemVertex v;
    v.name = name;
    v.cpu = cpu;
    v.req = req;
    p.vertices.push_back(std::move(v));
    return p.vertices.size() - 1;
  };
  const auto src = add("src", 0.05, graph::Requirement::kNode);
  const auto filt = add("filter", 0.35, graph::Requirement::kMovable);
  const auto clas = add("classify", 0.45, graph::Requirement::kMovable);
  const auto sink = add("sink", 0.0, graph::Requirement::kServer);
  p.edges.push_back({src, filt, 40.0});
  p.edges.push_back({filt, clas, 10.0});
  p.edges.push_back({clas, sink, 2.0});
  p.cpu_budget = 1.0;
  p.net_budget = 100.0;
  p.check();
  return p;
}

/// All faults and randomness off: the fleet behaves like num_nodes
/// copies of the deterministic node model.
FleetConfig clean_config() {
  // 20 nodes keeps the aggregate on-air load (every event pads to one
  // full wifi frame) under the channel capacity, so congestion does not
  // dominate what these tests probe.
  FleetConfig fc;
  fc.num_nodes = 20;
  fc.tree_fanout = 4;
  fc.num_classes = 3;
  fc.events_per_sec = 2.0;
  fc.epoch_s = 5.0;
  fc.epochs = 4;
  fc.radio = net::wifi_radio();
  fc.class_cpu_spread = 0.0;
  fc.drift_step = 0.0;
  fc.cpu_trend_per_epoch = 0.0;
  fc.seed = 7;
  fc.faults.crash_fraction = 0.0;
  fc.faults.degrade_fraction = 0.0;
  fc.faults.basestation_outages = 0;
  fc.faults.ge.p_good_to_bad = 0.0;  // never enters the bad state
  return fc;
}

/// Everything on the node except the pinned sink: cut bandwidth 2 B/s.
std::vector<graph::Side> node_heavy_sides() {
  return {graph::Side::kNode, graph::Side::kNode, graph::Side::kNode,
          graph::Side::kServer};
}

void install_all(FleetSim& sim, const std::vector<graph::Side>& sides) {
  for (std::size_t c = 0; c < sim.num_classes(); ++c) {
    sim.set_assignment(c, sides);
  }
}

}  // namespace

TEST(FleetSim, BitIdenticalReplayFromSeedAndConfig) {
  FleetConfig fc = clean_config();
  fc.class_cpu_spread = 0.5;
  fc.drift_step = 0.05;
  fc.cpu_trend_per_epoch = 0.02;
  fc.faults.crash_fraction = 0.08;
  fc.faults.degrade_fraction = 0.1;
  fc.faults.basestation_outages = 1;
  fc.faults.ge.p_good_to_bad = 0.01;

  FleetSim a(chain_problem(), fc);
  FleetSim b(chain_problem(), fc);
  install_all(a, node_heavy_sides());
  install_all(b, node_heavy_sides());
  while (!a.done()) {
    const EpochStats ea = a.run_epoch();
    const EpochStats eb = b.run_epoch();
    // Bit-identical, not approximately equal: the replayability claim.
    EXPECT_EQ(ea.goodput, eb.goodput);
    EXPECT_EQ(ea.predicted_goodput, eb.predicted_goodput);
    EXPECT_EQ(ea.input_fraction, eb.input_fraction);
    EXPECT_EQ(ea.delivery_fraction, eb.delivery_fraction);
    EXPECT_EQ(ea.burst_factor, eb.burst_factor);
    EXPECT_EQ(ea.nodes_down, eb.nodes_down);
    EXPECT_EQ(ea.measured_channel_quality, eb.measured_channel_quality);
  }
  EXPECT_TRUE(b.done());
  EXPECT_EQ(a.mean_goodput(), b.mean_goodput());
}

TEST(FleetSim, CleanFleetMatchesItsPrediction) {
  FleetSim sim(chain_problem(), clean_config());
  install_all(sim, node_heavy_sides());
  while (!sim.done()) {
    const EpochStats e = sim.run_epoch();
    // No faults, no drift, no heterogeneity: the only gap between
    // measured and predicted is per-node-depth vs mean-depth hop
    // compounding (Jensen), which is small at wifi-grade delivery.
    EXPECT_GT(e.predicted_goodput, 0.5);
    EXPECT_NEAR(e.goodput, e.predicted_goodput,
                0.05 * e.predicted_goodput);
    EXPECT_EQ(e.nodes_down, 0u);
    EXPECT_EQ(e.reparented, 0u);
    EXPECT_DOUBLE_EQ(e.burst_factor, 1.0);
    EXPECT_DOUBLE_EQ(e.outage_s, 0.0);
    EXPECT_DOUBLE_EQ(e.measured_channel_quality, 1.0);
  }
}

TEST(FleetSim, FaultsOnlyLowerGoodput) {
  FleetSim clean(chain_problem(), clean_config());
  FleetConfig faulty_cfg = clean_config();
  faulty_cfg.faults.crash_fraction = 0.10;
  faulty_cfg.faults.degrade_fraction = 0.15;
  faulty_cfg.faults.basestation_outages = 1;
  faulty_cfg.faults.ge.p_good_to_bad = 0.02;
  FleetSim faulty(chain_problem(), faulty_cfg);
  install_all(clean, node_heavy_sides());
  install_all(faulty, node_heavy_sides());
  while (!clean.done()) {
    (void)clean.run_epoch();
    (void)faulty.run_epoch();
  }
  EXPECT_LT(faulty.mean_goodput(), clean.mean_goodput());
  // And the schedule really did take nodes down at some point.
  std::size_t down_epochs = 0;
  for (const EpochStats& e : faulty.history()) down_epochs += e.nodes_down;
  EXPECT_GT(down_epochs, 0u);
}

TEST(FleetSim, CrashedAncestorsCauseReparenting) {
  FleetConfig fc = clean_config();
  fc.num_nodes = 80;
  fc.faults.crash_fraction = 0.2;  // plenty of dead inner nodes
  fc.faults.crash_min_down_s = fc.epoch_s * fc.epochs;  // down forever
  fc.faults.crash_max_down_s = fc.epoch_s * fc.epochs;
  FleetSim sim(chain_problem(), fc);
  install_all(sim, node_heavy_sides());
  std::size_t reparented = 0;
  while (!sim.done()) reparented += sim.run_epoch().reparented;
  // With 20% of an 80-node fanout-4 tree dead, some survivor must have
  // routed around a dead ancestor.
  EXPECT_GT(reparented, 0u);
}

TEST(FleetSim, CpuTrendShowsUpInMeasuredProblem) {
  FleetConfig fc = clean_config();
  fc.cpu_trend_per_epoch = 0.05;
  fc.epochs = 8;
  FleetSim sim(chain_problem(), fc);
  install_all(sim, node_heavy_sides());
  while (!sim.done()) (void)sim.run_epoch();
  // 8 epochs of 5% compounding drift: the measured profile's CPU cost
  // must have grown by ~47% relative to the base problem.
  const double scale = sim.measured_cpu_scale(0);
  EXPECT_NEAR(scale, std::pow(1.05, 8), 0.02);
  const partition::PartitionProblem measured = sim.measured_problem(0);
  const partition::PartitionProblem base = sim.base_problem();
  for (std::size_t v = 0; v < base.num_vertices(); ++v) {
    EXPECT_NEAR(measured.vertices[v].cpu, base.vertices[v].cpu * scale,
                1e-12);
  }
  // And the growing per-event work eats into the input fraction.
  EXPECT_LT(sim.history().back().input_fraction,
            sim.history().front().input_fraction);
}

TEST(FleetSim, OutageEpochLosesDelivery) {
  FleetConfig fc = clean_config();
  fc.faults.basestation_outages = 1;
  fc.faults.outage_min_s = 4.0;
  fc.faults.outage_max_s = 4.0;
  FleetSim sim(chain_problem(), fc);
  install_all(sim, node_heavy_sides());
  double with_outage = 1e9, without = 0.0;
  while (!sim.done()) {
    const EpochStats e = sim.run_epoch();
    if (e.outage_s > 1.0) {
      with_outage = std::min(with_outage, e.delivery_fraction);
    } else {
      without = std::max(without, e.delivery_fraction);
    }
  }
  EXPECT_LT(with_outage, without);
}

TEST(FleetSim, ConfigHashSeparatesFleetAndFaultFields) {
  FleetConfig a = clean_config();
  FleetConfig b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.drift_step = 0.123;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.faults.crash_fraction = 0.33;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(FleetSim, DefaultConfigHashIsPinned) {
  // Computed before the fixed fleet parameters became constants; a
  // changed value or mixing step moves every stamped bench snapshot.
  EXPECT_EQ(FleetConfig{}.hash(), 14382886537016469362ULL);
}

TEST(FleetSim, ContractChecks) {
  EXPECT_THROW(FleetSim(chain_problem(), [] {
                 FleetConfig fc = clean_config();
                 fc.tree_fanout = 1;
                 return fc;
               }()),
               util::ContractError);
  EXPECT_THROW(FleetSim(chain_problem(), [] {
                 FleetConfig fc = clean_config();
                 fc.num_classes = 0;
                 return fc;
               }()),
               util::ContractError);
  FleetSim sim(chain_problem(), clean_config());
  // Epochs cannot run before every class has a plan.
  EXPECT_THROW((void)sim.run_epoch(), util::ContractError);
  // Assignment size must match the problem.
  EXPECT_THROW(sim.set_assignment(0, {graph::Side::kNode}),
               util::ContractError);
}
