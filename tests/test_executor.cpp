#include <gtest/gtest.h>

#include <functional>

#include "apps/speech.hpp"
#include "graph/builder.hpp"
#include "runtime/executor.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::runtime;
using wishbone::util::ContractError;

namespace {

std::vector<Side> all_on(const graph::Graph& g, Side side) {
  std::vector<Side> sides(g.num_operators(), side);
  for (OperatorId v = 0; v < g.num_operators(); ++v) {
    if (g.info(v).is_source) sides[v] = Side::kNode;
    if (g.info(v).is_sink) sides[v] = Side::kServer;
  }
  return sides;
}

}  // namespace

TEST(Executor, RunsTinyGraphEndToEnd) {
  wbtest::TinyApp t = wbtest::tiny_app();
  PartitionedExecutor ex(t.g, all_on(t.g, Side::kServer));
  std::map<OperatorId, std::vector<Frame>> traces;
  traces[t.src] = wbtest::int_frames(4, 8);
  const auto out = ex.run(traces, 4);
  ASSERT_EQ(out.at(t.sink).size(), 4u);
  // double then half: same length as input, duplicated-first-half data.
  EXPECT_EQ(out.at(t.sink)[0].size(), 8u);
  EXPECT_EQ(ex.stats().events, 4u);
}

TEST(Executor, RejectsBackwardCut) {
  wbtest::TinyApp t = wbtest::tiny_app();
  std::vector<Side> sides = all_on(t.g, Side::kServer);
  sides[t.half] = Side::kNode;  // half on node but double on server
  EXPECT_THROW(PartitionedExecutor(t.g, sides), ContractError);
}

TEST(Executor, CutStatsCountFramesAndMessages) {
  wbtest::TinyApp t = wbtest::tiny_app();
  std::vector<Side> sides = all_on(t.g, Side::kServer);
  sides[t.dbl] = Side::kNode;  // cut between double and half
  PartitionedExecutor ex(t.g, sides, /*radio_payload=*/28);
  std::map<OperatorId, std::vector<Frame>> traces;
  traces[t.src] = wbtest::int_frames(3, 8);
  (void)ex.run(traces, 3);
  EXPECT_EQ(ex.stats().cut_frames, 3u);
  // doubled frame = 16 samples = 32 bytes + 5 header = 37 -> 2 packets.
  EXPECT_EQ(ex.stats().cut_messages, 6u);
  EXPECT_EQ(ex.stats().cut_payload_bytes, 3u * 37u);
}

TEST(Executor, LossHookDropsFrames) {
  wbtest::TinyApp t = wbtest::tiny_app();
  std::vector<Side> sides = all_on(t.g, Side::kServer);
  sides[t.dbl] = Side::kNode;
  PartitionedExecutor ex(t.g, sides);
  ex.set_loss_hook([](std::uint64_t idx) { return idx % 2 == 0; });
  std::map<OperatorId, std::vector<Frame>> traces;
  traces[t.src] = wbtest::int_frames(10, 8);
  const auto out = ex.run(traces, 10);
  EXPECT_EQ(out.at(t.sink).size(), 5u);
  EXPECT_EQ(ex.stats().cut_frames_lost, 5u);
}

// A frame fanning out to two cut edges is marshalled once, but a local
// consumer between them may send its own frame across the cut first:
// the second cut edge must still carry the original frame's samples.
TEST(Executor, CutFanOutAroundLocalConsumerDeliversOriginalFrame) {
  using graph::Context;
  using graph::Encoding;
  graph::GraphBuilder b;
  graph::Stream a, shifted;
  {
    auto node = b.node_scope();
    a = b.stateless("a", b.source("src", nullptr),
                    graph::make_stateless([](const Frame& f, Context& c) {
                      c.emit(Frame(f.samples(), Encoding::kFloat32));
                    }));
  }
  const OperatorId first = b.sink("first", a);
  {
    auto node = b.node_scope();
    shifted = b.stateless(
        "shift", a, graph::make_stateless([](const Frame& f, Context& c) {
          std::vector<float> out(f.samples());
          for (float& x : out) x += 1000.0f;
          c.emit(Frame(std::move(out), Encoding::kFloat32));
        }));
  }
  const OperatorId shifted_sink = b.sink("shifted", shifted);
  const OperatorId second = b.sink("second", a);
  graph::Graph g = b.build();

  std::vector<Side> sides(g.num_operators(), Side::kServer);
  for (const char* name : {"src", "a", "shift"}) sides[g.find(name)] = Side::kNode;
  PartitionedExecutor ex(g, sides);
  std::map<OperatorId, std::vector<Frame>> traces;
  traces[g.find("src")] = wbtest::int_frames(3, 8);
  const auto out = ex.run(traces, 3);
  EXPECT_EQ(ex.stats().cut_frames, 9u);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::vector<float>& want = traces[g.find("src")][i].samples();
    EXPECT_EQ(out.at(first)[i].samples(), want);
    EXPECT_EQ(out.at(second)[i].samples(), want);
    EXPECT_EQ(out.at(shifted_sink)[i][0], want[0] + 1000.0f);
  }
}

// The repartitioning-correctness property Wishbone relies on: every
// cut of the (stateless-after-source) speech pipeline computes the
// same answer, bit-for-bit at the sink, as long as nothing is lost.
class SpeechCutEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpeechCutEquivalence, SinkOutputIndependentOfCut) {
  const std::size_t cut = GetParam();

  apps::SpeechApp ref_app = apps::build_speech_app();
  const auto traces = apps::speech_traces(ref_app, 30, /*seed=*/5);
  PartitionedExecutor ref_ex(ref_app.g,
                             ref_app.assignment_for_cut(6));
  const auto ref_out = ref_ex.run(traces, 30);

  apps::SpeechApp app = apps::build_speech_app();
  const auto traces2 = apps::speech_traces(app, 30, /*seed=*/5);
  PartitionedExecutor ex(app.g, app.assignment_for_cut(cut));
  const auto out = ex.run(traces2, 30);

  const auto& ref_frames = ref_out.at(ref_app.sink);
  const auto& frames = out.at(app.sink);
  ASSERT_EQ(ref_frames.size(), frames.size());
  // Cut 2 ships the hamming output, whose fractional samples quantize
  // to int16 on the wire — the one cut that is only approximately
  // equivalent. All other cuts marshal raw integers or float32 and are
  // bit-exact.
  const bool exact = cut != 2;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(ref_frames[i].size(), frames[i].size());
    for (std::size_t k = 0; k < frames[i].size(); ++k) {
      if (exact) {
        EXPECT_FLOAT_EQ(ref_frames[i][k], frames[i][k])
            << "cut " << cut << " frame " << i << " sample " << k;
      } else {
        EXPECT_NEAR(ref_frames[i][k], frames[i][k],
                    0.05 + 0.02 * std::fabs(ref_frames[i][k]))
            << "cut " << cut << " frame " << i << " sample " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cuts, SpeechCutEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Executor, MissingTraceThrows) {
  wbtest::TinyApp t = wbtest::tiny_app();
  PartitionedExecutor ex(t.g, all_on(t.g, Side::kServer));
  std::map<OperatorId, std::vector<Frame>> traces;
  EXPECT_THROW((void)ex.run(traces, 1), ContractError);
}

// A work function that throws aborts run(); stepping the same executor
// afterwards must discard sink frames, not write them into the aborted
// run()'s destroyed result map.
TEST(Executor, StepAfterThrowingRunDiscardsSinkFrames) {
  using graph::Context;
  graph::GraphBuilder b;
  graph::Stream mid;
  {
    auto node = b.node_scope();
    mid = b.stateful(
        "flaky", b.source("src", nullptr),
        std::make_unique<graph::StatelessOp<
            std::function<void(const Frame&, Context&)>>>(
            [calls = 0](const Frame& f, Context& c) mutable {
              WB_REQUIRE(++calls > 1, "first frame rejected");
              c.emit(f);
            }));
  }
  const OperatorId sink = b.sink("out", mid);
  graph::Graph g = b.build();
  PartitionedExecutor ex(g, std::vector<Side>(g.num_operators(),
                                              Side::kNode));
  std::map<OperatorId, std::vector<Frame>> traces;
  traces[g.find("src")] = wbtest::int_frames(3);
  EXPECT_THROW((void)ex.run(traces, 3), ContractError);
  ex.step(traces, 1);
  EXPECT_EQ(ex.run(traces, 3).at(sink).size(), 3u);
}

TEST(Executor, AssignmentSizeMismatchThrows) {
  wbtest::TinyApp t = wbtest::tiny_app();
  EXPECT_THROW(PartitionedExecutor(t.g, {Side::kNode}), ContractError);
}
