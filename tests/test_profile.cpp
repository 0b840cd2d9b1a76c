#include <gtest/gtest.h>

#include "profile/platform.hpp"
#include "profile/profiler.hpp"
#include "profile/traces.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using wishbone::util::ContractError;

TEST(Platform, CatalogIsComplete) {
  const auto all = profile::all_platforms();
  EXPECT_EQ(all.size(), 7u);
  EXPECT_EQ(profile::platform_by_name("TMoteSky").name, "TMoteSky");
  EXPECT_THROW((void)profile::platform_by_name("Arduino"), ContractError);
}

TEST(Platform, MicrosIsLinearInCounts) {
  const auto p = profile::tmote_sky();
  graph::OpCounts a;
  a.float_ops = 100;
  graph::OpCounts b;
  b.float_ops = 200;
  EXPECT_NEAR(p.micros(b), 2.0 * p.micros(a), 1e-9);
}

TEST(Platform, TransCostsDominateOnMote) {
  // The software-float MSP430 penalizes transcendentals massively
  // compared to the PC — the distortion behind Fig. 8.
  const auto mote = profile::tmote_sky();
  const auto pc = profile::scheme_pc();
  graph::OpCounts trans;
  trans.trans_ops = 100;
  graph::OpCounts flops;
  flops.float_ops = 100;
  const double mote_ratio = mote.micros(trans) / mote.micros(flops);
  const double pc_ratio = pc.micros(trans) / pc.micros(flops);
  EXPECT_GT(mote_ratio, 3.0 * pc_ratio);
}

TEST(Platform, MessageAccounting) {
  const auto p = profile::tmote_sky();
  EXPECT_DOUBLE_EQ(p.messages_for(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.messages_for(28.0), 1.0);
  EXPECT_DOUBLE_EQ(p.messages_for(29.0), 2.0);
  EXPECT_DOUBLE_EQ(p.wire_bytes_for(28.0), 28.0 + 11.0);
}

TEST(Profiler, CountsEventsAndEdgeBytes) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[t.src] = wbtest::int_frames(10, 8);  // 8 samples = 16 bytes
  const auto pd = prof.run(traces, 10);

  EXPECT_EQ(pd.num_events, 10u);
  // src -> double edge: 16 bytes x 10 events.
  const auto& edges = t.g.edges();
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    if (edges[ei].from == t.src) {
      EXPECT_DOUBLE_EQ(pd.edge_bytes[ei], 160.0);
      EXPECT_DOUBLE_EQ(pd.bytes_per_event(ei), 16.0);
      EXPECT_EQ(pd.edge_elements[ei], 10u);
    }
    if (edges[ei].from == t.dbl) {
      EXPECT_DOUBLE_EQ(pd.bytes_per_event(ei), 32.0);  // doubled
    }
    if (edges[ei].from == t.half) {
      EXPECT_DOUBLE_EQ(pd.bytes_per_event(ei), 16.0);  // halved again
    }
  }
  EXPECT_EQ(pd.op_elements_out[t.dbl], 10u);
  EXPECT_EQ(pd.op_invocations[t.half], 10u);
}

/// The meter keeps one record per loop site: a loop run on every
/// invocation is one record whose counts sum over the invocations.
TEST(Profiler, LoopRunOnEveryInvocationIsOneSite) {
  graph::Graph g =
      wbtest::one_op_app([](const graph::Frame& f, graph::Context& c) {
        if (graph::CostMeter* m = c.cost_meter()) {
          m->loop_begin();
          m->loop_iteration(f.size());
          m->charge_int(2 * f.size());
          m->loop_end();
        }
      });
  profile::Profiler prof(g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[g.find("src")] = wbtest::int_frames(10, 8);
  const auto pd = prof.run(traces, 10);

  const graph::OperatorId op = g.find("op");
  EXPECT_EQ(pd.op_invocations[op], 10u);
  ASSERT_EQ(pd.op_loops[op].size(), 1u);
  EXPECT_EQ(pd.op_loops[op][0].iterations, 80u);
  EXPECT_EQ(pd.op_loops[op][0].body.int_ops, 160u);
  EXPECT_EQ(pd.op_invocations[g.find("src")], 10u);
}

TEST(Profiler, CpuFractionScalesWithRate) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[t.src] = wbtest::int_frames(4);
  const auto pd = prof.run(traces, 4);
  const auto plat = profile::gumstix();
  const double at1 = pd.cpu_fraction(plat, t.dbl, 1.0);
  const double at10 = pd.cpu_fraction(plat, t.dbl, 10.0);
  EXPECT_NEAR(at10, 10.0 * at1, 1e-12);
  EXPECT_GT(at1, 0.0);
}

TEST(Profiler, MissingTraceThrows) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  EXPECT_THROW((void)prof.run(traces, 1), ContractError);
  traces[t.src] = wbtest::int_frames(2);
  EXPECT_THROW((void)prof.run(traces, 5), ContractError);  // short trace
}

TEST(Profiler, HeatNormalizedToHottest) {
  wbtest::TinyApp t = wbtest::tiny_app();
  profile::Profiler prof(t.g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[t.src] = wbtest::int_frames(3);
  const auto pd = prof.run(traces, 3);
  const auto heat = pd.heat(profile::tmote_sky());
  ASSERT_EQ(heat.size(), t.g.num_operators());
  double max = 0.0;
  for (double h : heat) {
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
    max = std::max(max, h);
  }
  EXPECT_DOUBLE_EQ(max, 1.0);
}

TEST(Traces, SpeechDeterministicAndBounded) {
  profile::traces::SpeechParams sp;
  sp.seed = 42;
  const auto a = profile::traces::speech_trace(20, sp);
  const auto b = profile::traces::speech_trace(20, sp);
  ASSERT_EQ(a.size(), 20u);
  EXPECT_EQ(a[0].size(), 200u);
  EXPECT_EQ(a[0].wire_bytes(), 400u);  // the paper's 400-byte frame
  for (std::size_t f = 0; f < 20; ++f) {
    ASSERT_EQ(a[f].size(), b[f].size());
    for (std::size_t i = 0; i < a[f].size(); ++i) {
      EXPECT_EQ(a[f][i], b[f][i]);  // deterministic
      EXPECT_GE(a[f][i], -2048.0f);  // 12-bit ADC range
      EXPECT_LE(a[f][i], 2047.0f);
    }
  }
}

TEST(Traces, SpeechHasDynamics) {
  const auto frames = profile::traces::speech_trace(100);
  double max_rms = 0.0, min_rms = 1e18;
  for (const auto& f : frames) {
    double e = 0.0;
    for (float x : f.samples()) e += static_cast<double>(x) * x;
    const double rms = std::sqrt(e / static_cast<double>(f.size()));
    max_rms = std::max(max_rms, rms);
    min_rms = std::min(min_rms, rms);
  }
  EXPECT_GT(max_rms, 5.0 * min_rms);  // voiced vs silence
}

TEST(Traces, EegSeizureScheduleSharedAcrossChannels) {
  profile::traces::EegParams p0;
  p0.channel = 0;
  profile::traces::EegParams p1;
  p1.channel = 1;
  const auto ch0 = profile::traces::eeg_trace(40, p0);
  const auto ch1 = profile::traces::eeg_trace(40, p1);
  // Seizure windows have much higher RMS; the set of high-RMS windows
  // must coincide across channels (same episodes).
  auto high_windows = [](const std::vector<graph::Frame>& t) {
    std::vector<double> rms;
    for (const auto& f : t) {
      double e = 0.0;
      for (float x : f.samples()) e += static_cast<double>(x) * x;
      rms.push_back(std::sqrt(e / static_cast<double>(f.size())));
    }
    double mx = 0.0;
    for (double r : rms) mx = std::max(mx, r);
    std::vector<bool> high;
    high.reserve(rms.size());
    for (double r : rms) high.push_back(r > 0.6 * mx);
    return high;
  };
  EXPECT_EQ(high_windows(ch0), high_windows(ch1));
}

TEST(Traces, EegWindowSize) {
  const auto t = profile::traces::eeg_trace(3);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].size(), 512u);      // 2 s at 256 Hz
  EXPECT_EQ(t[0].wire_bytes(), 1024u);
}

TEST(Traces, BadParamsThrow) {
  EXPECT_THROW((void)profile::traces::speech_trace(0), ContractError);
  EXPECT_THROW((void)profile::traces::eeg_trace(0), ContractError);
}
