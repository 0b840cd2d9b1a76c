#include <gtest/gtest.h>

#include "apps/speech.hpp"
#include "profile/profiler.hpp"
#include "profile/task_split.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::profile;
using wishbone::util::ContractError;

namespace {

graph::LoopRecord loop(std::uint64_t iters, std::uint64_t flops) {
  graph::LoopRecord lr;
  lr.iterations = iters;
  lr.body.float_ops = flops;
  return lr;
}

}  // namespace

TEST(TaskSplit, CheapLoopLeftIntact) {
  const auto plat = gumstix();
  graph::OpCounts totals;
  totals.float_ops = 100;
  const auto plan = plan_task_split({loop(10, 100)}, totals, 1, plat,
                                    /*target_us=*/1e6);
  EXPECT_TRUE(plan.splits.empty());
  EXPECT_EQ(plan.yield_points, 0u);
  EXPECT_NEAR(plan.max_slice_us, plat.micros(totals), 1e-9);
}

TEST(TaskSplit, ExpensiveLoopSplitByIterations) {
  const auto plat = tmote_sky();
  // 1000 iterations x 100 flops each: 100k flops = 5M cycles = 1.25 s
  // at 4 MHz. Target 50 ms slices -> 40 iterations per slice.
  graph::OpCounts totals;
  totals.float_ops = 100'000;
  const auto plan =
      plan_task_split({loop(1000, 100'000)}, totals, 1, plat, 50'000.0);
  ASSERT_EQ(plan.splits.size(), 1u);
  EXPECT_EQ(plan.splits[0].loop_index, 0u);
  EXPECT_EQ(plan.splits[0].iterations_per_slice, 40u);
  EXPECT_LE(plan.max_slice_us, 50'000.0 + 1e-6);
  EXPECT_EQ(plan.yield_points, 24u);  // ceil(1000/40) - 1
}

TEST(TaskSplit, StraightLineCodeIsTheFloor) {
  const auto plat = tmote_sky();
  graph::OpCounts totals;
  totals.float_ops = 2000;  // 1000 in a loop, 1000 straight-line
  const auto plan =
      plan_task_split({loop(100, 1000)}, totals, 1, plat, 1.0);
  // Even an aggressive 1 us target cannot split straight-line code.
  EXPECT_GE(plan.max_slice_us, plan.straight_line_us - 1e-9);
  EXPECT_NEAR(plan.straight_line_us, plat.micros([] {
                graph::OpCounts c;
                c.float_ops = 1000;
                return c;
              }()),
              1e-9);
}

TEST(TaskSplit, AveragesOverInvocations) {
  const auto plat = gumstix();
  graph::OpCounts totals;
  totals.float_ops = 10'000;  // over 10 invocations: 1000 per event
  const auto plan =
      plan_task_split({loop(1000, 10'000)}, totals, 10, plat, 1e9);
  EXPECT_NEAR(plan.total_us, plat.micros(totals) / 10.0, 1e-9);
}

TEST(TaskSplit, ContractChecks) {
  const auto plat = gumstix();
  graph::OpCounts totals;
  EXPECT_THROW((void)plan_task_split({}, totals, 0, plat, 1.0),
               ContractError);
  EXPECT_THROW((void)plan_task_split({}, totals, 1, plat, 0.0),
               ContractError);
}

/// Loop sites that only some invocations enter stay apart: op runs
/// loops A (100 iterations) and B (40) on the first frame (its first
/// sample is 0) and no loop on the second, so two sites over two
/// invocations, each expensive enough to split.
TEST(TaskSplit, SitesEnteredOnOneInvocationStayApart) {
  graph::Graph g =
      wbtest::one_op_app([](const graph::Frame& f, graph::Context& c) {
        graph::CostMeter* m = c.cost_meter();
        if (m == nullptr || f.samples()[0] != 0.0f) return;
        for (std::uint64_t iters : {100u, 40u}) {
          m->loop_begin();
          m->loop_iteration(iters);
          m->charge_float(100 * iters);
          m->loop_end();
        }
      });
  Profiler prof(g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[g.find("src")] = wbtest::int_frames(2);
  const auto pd = prof.run(traces, 2);

  const graph::OperatorId op = g.find("op");
  ASSERT_EQ(pd.op_invocations[op], 2u);
  ASSERT_EQ(pd.op_loops[op].size(), 2u);
  EXPECT_EQ(pd.op_loops[op][0].iterations, 100u);
  EXPECT_EQ(pd.op_loops[op][1].iterations, 40u);
  const auto plan = plan_task_split(pd.op_loops[op], pd.op_counts[op],
                                    pd.op_invocations[op], tmote_sky(),
                                    10'000.0);
  ASSERT_EQ(plan.splits.size(), 2u);
  EXPECT_EQ(plan.splits[0].loop_index, 0u);
  EXPECT_EQ(plan.splits[1].loop_index, 1u);
  EXPECT_LE(plan.max_slice_us, 10'000.0 + 1e-6);
}

TEST(TaskSplit, SplitsRealFftOperatorOnMote) {
  // The FFT runs ~285 ms per frame on the TMote; splitting to 10 ms
  // slices must produce a plan with many yield points whose slices all
  // fit (up to the straight-line floor).
  apps::SpeechApp app = apps::build_speech_app();
  Profiler prof(app.g);
  const auto pd = prof.run(apps::speech_traces(app, 20), 20);
  const auto plat = tmote_sky();
  const auto plan = plan_task_split(
      pd.op_loops[app.fft], pd.op_counts[app.fft],
      pd.op_invocations[app.fft], plat, 10'000.0);
  EXPECT_GT(plan.total_us, 100'000.0);
  EXPECT_FALSE(plan.splits.empty());
  EXPECT_GT(plan.yield_points, 5u);
  EXPECT_LT(plan.max_slice_us, plan.total_us / 4.0);
}
