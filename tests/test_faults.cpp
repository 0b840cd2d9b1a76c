#include <gtest/gtest.h>

#include <cmath>

#include "net/faults.hpp"
#include "net/radio.hpp"
#include "net/stochastic.hpp"
#include "net/topology.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::net;

// ---------------------------------------------------------- Xorshift64

TEST(Faults, XorshiftGoldenValues) {
  // Pins the PRNG implementation: these exact outputs are what every
  // stamped (seed, config) replay in BENCH_faults.json depends on.
  Xorshift64 r(42);
  EXPECT_EQ(r.next(), 781841098068314423ULL);
  EXPECT_EQ(r.next(), 15524685420693184944ULL);
  EXPECT_EQ(r.next(), 6216334327884241793ULL);
  EXPECT_EQ(Xorshift64(42).fork(7).next(), 12288228120793009515ULL);
}

TEST(Faults, XorshiftForkStreamsAreIndependent) {
  Xorshift64 root(9);
  Xorshift64 a = root.fork(1);
  Xorshift64 b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 256; ++i) same += a.next() == b.next();
  EXPECT_EQ(same, 0);
  // Forking does not perturb the parent stream.
  Xorshift64 clean(9);
  (void)Xorshift64(9).fork(3);
  EXPECT_EQ(root.next(), clean.next());
}

TEST(Faults, XorshiftUniformInUnitInterval) {
  Xorshift64 r(3);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.next_uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.01);
}

// ------------------------------------------------------ GilbertElliott

TEST(Faults, GilbertElliottMeanBurstLengthMatchesAnalytic) {
  // Mean bad-burst length of the two-state chain is 1 / p_bad_to_good.
  GilbertElliottParams params;
  params.p_good_to_bad = 0.02;
  params.p_bad_to_good = 0.2;
  GilbertElliott ge(params, 11);
  for (int i = 0; i < 200'000; ++i) (void)ge.lose();
  ASSERT_GT(ge.bursts(), 1000u);
  const double mean_burst = static_cast<double>(ge.bad_steps()) /
                            static_cast<double>(ge.bursts());
  EXPECT_NEAR(mean_burst, 1.0 / params.p_bad_to_good, 0.3);
  // Stationary bad-state occupancy: p_gb / (p_gb + p_bg).
  const double bad_frac = static_cast<double>(ge.bad_steps()) /
                          static_cast<double>(ge.steps());
  const double expected =
      params.p_good_to_bad / (params.p_good_to_bad + params.p_bad_to_good);
  EXPECT_NEAR(bad_frac, expected, 0.02);
}

TEST(Faults, GilbertElliottDeterministicUnderSeed) {
  GilbertElliott a(GilbertElliottParams{}, 5);
  GilbertElliott b(GilbertElliottParams{}, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.lose(), b.lose());
}

TEST(Faults, GilbertElliottGoldenCounts) {
  GilbertElliott ge(GilbertElliottParams{}, 42);
  std::uint64_t lost = 0;
  for (int i = 0; i < 10'000; ++i) lost += ge.lose() ? 1 : 0;
  EXPECT_EQ(lost, 300u);
  EXPECT_EQ(ge.bad_steps(), 385u);
  EXPECT_EQ(ge.bursts(), 95u);
}

TEST(Faults, GilbertElliottRejectsBadParams) {
  GilbertElliottParams p;
  p.p_bad_to_good = 0.0;  // bursts would never end
  EXPECT_THROW(GilbertElliott(p, 1), util::ContractError);
  p = GilbertElliottParams{};
  p.loss_bad = 1.5;
  EXPECT_THROW(GilbertElliott(p, 1), util::ContractError);
}

// ------------------------------------------------------- BurstyChannel

TEST(Faults, BurstyChannelNeverBeatsCleanChannel) {
  // Burst loss is layered multiplicatively: delivery through the
  // bursty channel cannot exceed the same-seed congestion-only draw.
  const RadioModel radio = cc2420_radio();
  GilbertElliottParams ge;
  ge.p_good_to_bad = 0.05;
  StochasticChannel clean(radio, TreeTopology(1), 17);
  BurstyChannel bursty(StochasticChannel(radio, TreeTopology(1), 17), ge, 99);
  const std::uint64_t n = 20'000;
  const auto clean_n = clean.deliver_count(800.0, n);
  const auto bursty_n = bursty.deliver_count(800.0, n);
  EXPECT_LT(bursty_n, clean_n);
  // And the deficit is roughly the stationary burst-loss rate.
  const double expected_survival =
      1.0 - ge.p_good_to_bad / (ge.p_good_to_bad + ge.p_bad_to_good) *
                ge.loss_bad;
  const double ratio = static_cast<double>(bursty_n) /
                       static_cast<double>(clean_n);
  EXPECT_NEAR(ratio, expected_survival, 0.03);
}

TEST(Faults, BurstyChannelChainAdvancesIndependentlyOfLoad) {
  // The burst process models external interference: offering a
  // different load must not change the chain trajectory.
  const RadioModel radio = cc2420_radio();
  BurstyChannel a(StochasticChannel(radio, TreeTopology(1), 4),
                  GilbertElliottParams{}, 8);
  BurstyChannel b(StochasticChannel(radio, TreeTopology(1), 4),
                  GilbertElliottParams{}, 8);
  (void)a.deliver_count(100.0, 5000);     // light load
  (void)b.deliver_count(50'000.0, 5000);  // collapsed channel
  EXPECT_EQ(a.chain().bad_steps(), b.chain().bad_steps());
  EXPECT_EQ(a.chain().bursts(), b.chain().bursts());
}

// ------------------------------------------------------- FaultSchedule

namespace {

FaultConfig test_config() {
  FaultConfig fc;  // defaults: 300 s, 5% crashes, 10% degraded, 1 outage
  return fc;
}

}  // namespace

TEST(Faults, ScheduleIsReplayableFromSeedAndConfig) {
  const FaultConfig fc = test_config();
  FaultSchedule a(fc, 200, 7);
  FaultSchedule b(fc, 200, 7);
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].node, b.crashes()[i].node);
    EXPECT_DOUBLE_EQ(a.crashes()[i].down_s, b.crashes()[i].down_s);
    EXPECT_DOUBLE_EQ(a.crashes()[i].up_s, b.crashes()[i].up_s);
  }
  ASSERT_EQ(a.degradations().size(), b.degradations().size());
  for (std::size_t i = 0; i < a.degradations().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.degradations()[i].delivery_factor,
                     b.degradations()[i].delivery_factor);
  }
  ASSERT_EQ(a.outages().size(), b.outages().size());
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outages()[i].start_s, b.outages()[i].start_s);
  }
}

TEST(Faults, ScheduleGoldenShape) {
  // The canonical benchmark schedule shape for (100 nodes, seed 42).
  const FaultConfig fc = test_config();
  FaultSchedule fs(fc, 100, 42);
  EXPECT_EQ(fs.crashes().size(), 5u);
  EXPECT_EQ(fs.degradations().size(), 10u);
  EXPECT_EQ(fs.outages().size(), 1u);
  EXPECT_EQ(fs.crashes()[0].node, 0u);
  EXPECT_NEAR(fs.crashes()[0].down_s, 98.390893, 1e-6);
  EXPECT_NEAR(fs.crashes()[0].up_s, 126.683016, 1e-6);
  EXPECT_EQ(fc.hash(), 4920606272041360511ULL);
}

TEST(Faults, ConfigHashSeparatesFields) {
  FaultConfig a = test_config();
  FaultConfig b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.crash_fraction += 0.01;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.ge.loss_bad -= 0.1;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Faults, AddingOutagesDoesNotReshuffleCrashes) {
  FaultConfig fc = test_config();
  FaultSchedule base(fc, 150, 3);
  fc.basestation_outages = 4;
  FaultSchedule more(fc, 150, 3);
  ASSERT_EQ(base.crashes().size(), more.crashes().size());
  for (std::size_t i = 0; i < base.crashes().size(); ++i) {
    EXPECT_EQ(base.crashes()[i].node, more.crashes()[i].node);
    EXPECT_DOUBLE_EQ(base.crashes()[i].down_s, more.crashes()[i].down_s);
  }
  EXPECT_EQ(more.outages().size(), 4u);
}

TEST(Faults, QueriesMatchWindows) {
  const FaultConfig fc = test_config();
  FaultSchedule fs(fc, 100, 42);
  for (const CrashWindow& w : fs.crashes()) {
    EXPECT_FALSE(fs.node_down(w.node, w.down_s - 0.01));
    EXPECT_TRUE(fs.node_down(w.node, w.down_s + 0.01));
    EXPECT_FALSE(fs.node_down(w.node, w.up_s));
    EXPECT_NEAR(fs.node_down_overlap(w.node, 0.0, fc.duration_s),
                w.up_s - w.down_s, 1e-9);
  }
  for (const LinkDegradation& d : fs.degradations()) {
    EXPECT_DOUBLE_EQ(fs.link_factor(d.node, d.start_s - 0.01), 1.0);
    EXPECT_DOUBLE_EQ(fs.link_factor(d.node, d.start_s + 0.01),
                     d.delivery_factor);
    // Time-averaged factor sits strictly between degraded and clean
    // when the window covers part of the queried range.
    const double avg = fs.link_factor_overlap(d.node, 0.0, fc.duration_s);
    EXPECT_GT(avg, d.delivery_factor);
    EXPECT_LT(avg, 1.0);
  }
  const OutageWindow& o = fs.outages()[0];
  EXPECT_TRUE(fs.basestation_down(0.5 * (o.start_s + o.end_s)));
  EXPECT_FALSE(fs.basestation_down(o.end_s + 0.01));
  EXPECT_NEAR(fs.outage_overlap(0.0, fc.duration_s), o.end_s - o.start_s,
              1e-9);
  // A node with no fault entry: clean on every axis.
  std::size_t clean_node = 0;
  for (std::size_t n = 0; n < 100; ++n) {
    bool faulted = false;
    for (const CrashWindow& w : fs.crashes()) faulted |= w.node == n;
    for (const LinkDegradation& d : fs.degradations()) {
      faulted |= d.node == n;
    }
    if (!faulted) {
      clean_node = n;
      break;
    }
  }
  EXPECT_DOUBLE_EQ(fs.node_down_overlap(clean_node, 0.0, fc.duration_s), 0.0);
  EXPECT_DOUBLE_EQ(fs.link_factor_overlap(clean_node, 0.0, fc.duration_s),
                   1.0);
}

TEST(Faults, OutageWindowsAreDisjointAndInRange) {
  FaultConfig fc = test_config();
  fc.basestation_outages = 5;
  FaultSchedule fs(fc, 50, 13);
  ASSERT_EQ(fs.outages().size(), 5u);
  double prev_end = 0.0;
  for (const OutageWindow& w : fs.outages()) {
    EXPECT_GE(w.start_s, prev_end);
    EXPECT_GT(w.end_s, w.start_s);
    EXPECT_LE(w.end_s, fc.duration_s);
    prev_end = w.end_s;
  }
}

TEST(Faults, ScheduleContractChecks) {
  FaultConfig fc = test_config();
  fc.duration_s = 0.0;
  EXPECT_THROW(FaultSchedule(fc, 10, 1), util::ContractError);
  fc = test_config();
  fc.crash_fraction = 1.5;
  EXPECT_THROW(FaultSchedule(fc, 10, 1), util::ContractError);
  fc = test_config();
  fc.crash_min_down_s = 100.0;
  fc.crash_max_down_s = 50.0;
  EXPECT_THROW(FaultSchedule(fc, 10, 1), util::ContractError);
}
