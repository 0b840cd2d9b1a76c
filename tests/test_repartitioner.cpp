#include <gtest/gtest.h>

#include <vector>

#include "net/radio.hpp"
#include "partition/baselines.hpp"
#include "runtime/fleet_sim.hpp"
#include "runtime/repartitioner.hpp"
#include "serve/server.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::runtime;

namespace {

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
  const auto src = add("src", 0.01, graph::Requirement::kNode);
  const auto filt = add("filter", 0.10, graph::Requirement::kMovable);
  const auto clas = add("classify", 0.20, graph::Requirement::kMovable);
  const auto sink = add("sink", 0.0, graph::Requirement::kServer);
  p.edges.push_back({src, filt, 40.0});
  p.edges.push_back({filt, clas, 10.0});
  p.edges.push_back({clas, sink, 2.0});
  p.cpu_budget = 1.0;
  p.net_budget = 100.0;
  p.check();
  return p;
}

FleetConfig quiet_config() {
  FleetConfig fc;
  fc.num_nodes = 30;
  fc.num_classes = 2;
  fc.events_per_sec = 2.0;
  fc.epoch_s = 5.0;
  fc.epochs = 10;
  fc.radio = net::wifi_radio();
  fc.class_cpu_spread = 0.0;
  fc.drift_step = 0.0;
  fc.seed = 3;
  fc.faults.crash_fraction = 0.0;
  fc.faults.degrade_fraction = 0.0;
  fc.faults.basestation_outages = 0;
  fc.faults.ge.p_good_to_bad = 0.0;
  return fc;
}

RepartitionerConfig pump_config() {
  RepartitionerConfig rc;
  rc.pump_server = true;
  rc.seed = 11;
  return rc;
}

serve::ServeOptions pump_server_options() {
  serve::ServeOptions so;
  so.workers = 0;
  return so;
}

EpochStats fake_epoch(std::size_t epoch, double goodput, double predicted) {
  EpochStats st;
  st.epoch = epoch;
  st.goodput = goodput;
  st.predicted_goodput = predicted;
  return st;
}

}  // namespace

TEST(Repartitioner, InitialInstallSolvesEveryClass) {
  serve::PartitionServer server(pump_server_options());
  FleetSim fleet(chain_problem(), quiet_config());
  Repartitioner rep(server, fleet, pump_config());
  const auto decisions = rep.install_initial_plans();
  ASSERT_EQ(decisions.size(), fleet.num_classes());
  for (const RepartitionDecision& d : decisions) {
    EXPECT_EQ(d.source, PlanSource::kFresh);
    EXPECT_EQ(d.attempts, 1u);
  }
  EXPECT_EQ(rep.stats().fresh_solves, fleet.num_classes());
  // The fleet can run immediately on the installed plans.
  const EpochStats e = fleet.run_epoch();
  EXPECT_GT(e.goodput, 0.0);
}

TEST(Repartitioner, HysteresisBandGatesReplanning) {
  serve::PartitionServer server(pump_server_options());
  FleetSim fleet(chain_problem(), quiet_config());
  RepartitionerConfig rc = pump_config();
  rc.trigger_divergence = 0.2;
  rc.clear_divergence = 0.05;
  rc.cooldown_epochs = 3;
  Repartitioner rep(server, fleet, rc);
  (void)rep.install_initial_plans();

  // Small divergence: inside the band, nothing happens.
  EXPECT_TRUE(rep.on_epoch(fake_epoch(0, 0.95, 1.0)).empty());
  EXPECT_FALSE(rep.diverged());

  // Trip the trigger: a full replanning round runs.
  const auto round = rep.on_epoch(fake_epoch(1, 0.5, 1.0));
  EXPECT_EQ(round.size(), fleet.num_classes());
  EXPECT_TRUE(rep.diverged());

  // Still diverged but inside the cooldown: no second round.
  EXPECT_TRUE(rep.on_epoch(fake_epoch(2, 0.5, 1.0)).empty());
  EXPECT_TRUE(rep.on_epoch(fake_epoch(3, 0.5, 1.0)).empty());
  // Cooldown over, still diverged: replan again.
  EXPECT_FALSE(rep.on_epoch(fake_epoch(4, 0.5, 1.0)).empty());

  // Divergence between clear and trigger: stays armed, no thrash.
  EXPECT_TRUE(rep.on_epoch(fake_epoch(7, 0.9, 1.0)).empty());
  EXPECT_TRUE(rep.diverged());
  // Below the clear threshold: re-arms.
  EXPECT_TRUE(rep.on_epoch(fake_epoch(8, 0.99, 1.0)).empty());
  EXPECT_FALSE(rep.diverged());
}

TEST(Repartitioner, StaleRungServesLastGoodWhenSolverDies) {
  serve::PartitionServer server(pump_server_options());
  FleetSim fleet(chain_problem(), quiet_config());
  Repartitioner rep(server, fleet, pump_config());
  (void)rep.install_initial_plans();

  server.stop();  // optimizer outage
  const auto round = rep.on_epoch(fake_epoch(0, 0.1, 1.0));
  ASSERT_EQ(round.size(), fleet.num_classes());
  for (const RepartitionDecision& d : round) {
    EXPECT_EQ(d.source, PlanSource::kStale);
    // All attempts were made before degrading.
    EXPECT_EQ(d.attempts, rep.config().max_attempts);
  }
  EXPECT_EQ(rep.stats().stale_served, fleet.num_classes());
  // The fleet still runs — liveness through the outage.
  EXPECT_GT(fleet.run_epoch().goodput, 0.0);
}

TEST(Repartitioner, BaselineRungWhenNoLastGoodExists) {
  serve::PartitionServer server(pump_server_options());
  server.stop();  // dead on arrival
  FleetSim fleet(chain_problem(), quiet_config());
  Repartitioner rep(server, fleet, pump_config());
  const auto decisions = rep.install_initial_plans();
  ASSERT_EQ(decisions.size(), fleet.num_classes());
  for (const RepartitionDecision& d : decisions) {
    EXPECT_EQ(d.source, PlanSource::kBaseline);
  }
  EXPECT_EQ(rep.stats().baseline_served, fleet.num_classes());
  // Baseline = all-at-basestation: the fleet runs, shipping raw data.
  const EpochStats e = fleet.run_epoch();
  EXPECT_GT(e.goodput, 0.0);
}

TEST(Repartitioner, StatsAreTheLabeledCounterDeltasOverAFaultedRun) {
  auto rung = [](const char* r) {
    return wbtest::exported("wishbone_repartitioner_rungs", {{"rung", r}});
  };
  auto failed = [](const char* r) {
    return wbtest::exported("wishbone_repartitioner_failed_attempts",
                            {{"reason", r}});
  };
  const char* kReasons[] = {"pump_stalled", "deadline", "shutdown",
                            "expired", "infeasible"};
  const double fresh0 = rung("fresh"), stale0 = rung("stale"),
               baseline0 = rung("baseline");
  double failed0[5];
  for (int i = 0; i < 5; ++i) failed0[i] = failed(kReasons[i]);
  const double triggers0 = wbtest::exported("wishbone_repartitioner_triggers");

  serve::PartitionServer server(pump_server_options());
  FleetSim fleet(chain_problem(), quiet_config());
  RepartitionerConfig rc = pump_config();
  rc.stale_max_epochs = 1;
  Repartitioner rep(server, fleet, rc);
  (void)rep.install_initial_plans();  // fresh, per class
  server.stop();                      // optimizer outage
  (void)rep.on_epoch(fake_epoch(0, 0.1, 1.0));  // stale, per class
  (void)rep.on_epoch(fake_epoch(2, 0.1, 1.0));  // stale again
  for (int e = 0; e < 3; ++e) (void)fleet.run_epoch();
  (void)rep.on_epoch(fake_epoch(5, 0.1, 1.0));  // last-good too old

  const RepartitionerStats s = rep.stats();
  const std::size_t classes = fleet.num_classes();
  EXPECT_EQ(s.checks, 3u);
  EXPECT_EQ(s.triggers, 3u);
  EXPECT_EQ(s.fresh_solves, classes);
  EXPECT_EQ(s.stale_served, 2 * classes);
  EXPECT_EQ(s.baseline_served, classes);
  EXPECT_EQ(s.failed_shutdown, 3 * classes * rc.max_attempts);
  EXPECT_EQ(s.retries, 3 * classes * (rc.max_attempts - 1));

  EXPECT_EQ(static_cast<double>(s.triggers),
            wbtest::exported("wishbone_repartitioner_triggers") - triggers0);
  EXPECT_EQ(static_cast<double>(s.fresh_solves), rung("fresh") - fresh0);
  EXPECT_EQ(static_cast<double>(s.stale_served), rung("stale") - stale0);
  EXPECT_EQ(static_cast<double>(s.baseline_served),
            rung("baseline") - baseline0);
  const std::size_t by_reason[] = {s.failed_pump_stalled, s.failed_deadline,
                                   s.failed_shutdown, s.failed_expired,
                                   s.failed_infeasible};
  std::size_t sum = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(static_cast<double>(by_reason[i]),
              failed(kReasons[i]) - failed0[i])
        << kReasons[i];
    sum += by_reason[i];
  }
  EXPECT_EQ(s.failed_attempts, sum);
}

TEST(Repartitioner, PumpModeRunsAreBitReproducible) {
  auto run = [] {
    serve::PartitionServer server(pump_server_options());
    FleetConfig fc = quiet_config();
    fc.cpu_trend_per_epoch = 0.06;  // force drift -> real replans
    fc.class_cpu_spread = 0.4;
    fc.drift_step = 0.02;
    FleetSim fleet(chain_problem(), fc);
    Repartitioner rep(server, fleet, pump_config());
    (void)rep.install_initial_plans();
    std::vector<double> goodputs;
    while (!fleet.done()) {
      const EpochStats e = fleet.run_epoch();
      (void)rep.on_epoch(e);
      goodputs.push_back(e.goodput);
    }
    return std::make_pair(goodputs, rep.stats().triggers);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    EXPECT_EQ(a.first[i], b.first[i]) << "epoch " << i;
  }
  EXPECT_EQ(a.second, b.second);
}

TEST(Repartitioner, ServerBaselineKeepsPinsAndSendsRestToServer) {
  const partition::PartitionProblem p = chain_problem();
  const partition::BaselineResult r = partition::server_baseline(p);
  ASSERT_EQ(r.sides.size(), p.num_vertices());
  EXPECT_EQ(r.sides[0], graph::Side::kNode);    // pinned source stays
  EXPECT_EQ(r.sides[1], graph::Side::kServer);  // movables go over
  EXPECT_EQ(r.sides[2], graph::Side::kServer);
  EXPECT_EQ(r.sides[3], graph::Side::kServer);
  // Cut bandwidth is the raw source output.
  EXPECT_NEAR(r.net_used, 40.0, 1e-12);
  EXPECT_TRUE(r.feasible);
}

TEST(Repartitioner, ContractChecks) {
  serve::PartitionServer server(pump_server_options());
  FleetSim fleet(chain_problem(), quiet_config());
  RepartitionerConfig rc = pump_config();
  rc.trigger_divergence = 0.01;
  rc.clear_divergence = 0.05;  // inverted band
  EXPECT_THROW(Repartitioner(server, fleet, rc), util::ContractError);

  // Pump mode demands a workerless server.
  serve::ServeOptions so;
  so.workers = 2;
  serve::PartitionServer threaded(so);
  EXPECT_THROW(Repartitioner(threaded, fleet, pump_config()),
               util::ContractError);
}
