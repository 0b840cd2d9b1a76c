// ProfileData pinned bit for bit. Each test profiles one of the apps the
// benchmarks compile (EEG-22 and EEG-8 over 8 windows, speech over 200
// frames) and folds every ProfileData field into one 64-bit digest,
// hashing doubles by their bit pattern. The expected digests pin the
// profile the profiler's earlier, separate traversal produced; its loop
// records (then one per loop execution) are hashed folded per site the
// way task splitting folded them, which is what the meters now keep.
// Any drift in a count, a byte total, a loop record or a peak — in any
// operator or edge — fails here, and with it every downstream
// partition and figure.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "graph/builder.hpp"
#include "profile/profiler.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace wishbone {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(const graph::OpCounts& c) {
    for (std::uint64_t x : {c.int_ops, c.float_ops, c.trans_ops, c.mem_bytes,
                            c.branches, c.emits}) {
      add(x);
    }
  }
  template <class T>
  void add(const std::vector<T>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) add(x);
  }
  void add(const graph::LoopRecord& r) {
    add(r.iterations);
    add(r.body);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const profile::ProfileData& pd) {
  Digest d;
  d.add(static_cast<std::uint64_t>(pd.num_events));
  d.add(pd.op_counts);
  d.add(pd.op_invocations);
  d.add(pd.op_elements_out);
  d.add(pd.op_bytes_out);
  d.add(pd.op_loops);
  d.add(pd.op_peak_counts);
  d.add(pd.edge_bytes);
  d.add(pd.edge_elements);
  d.add(pd.edge_peak_bytes);
  return d.value();
}

std::uint64_t eeg_digest(std::size_t channels) {
  apps::EegConfig cfg;
  cfg.channels = channels;
  apps::EegApp app = apps::build_eeg_app(cfg);
  const auto traces = apps::eeg_traces(app, 8);
  profile::Profiler prof(app.g);
  return digest(prof.run(traces, 8));
}

TEST(Profiler, Eeg22DigestIsPinned) {
  const std::uint64_t d = eeg_digest(22);
  EXPECT_EQ(d, 0x2b7764b365a8fea2ull) << std::hex << "0x" << d;
}

TEST(Profiler, Eeg8DigestIsPinned) {
  const std::uint64_t d = eeg_digest(8);
  EXPECT_EQ(d, 0xb4f8d923e9aa9efdull) << std::hex << "0x" << d;
}

TEST(Profiler, SpeechDigestIsPinned) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 200);
  profile::Profiler prof(app.g);
  const std::uint64_t d = digest(prof.run(traces, 200));
  EXPECT_EQ(d, 0x054d400cf68e66d8ull) << std::hex << "0x" << d;
}

/// Only sinks may omit an implementation; a non-sink without one is a
/// contract violation the first time a frame reaches it.
TEST(Profiler, NonSinkWithoutImplementationThrows) {
  graph::GraphBuilder b;
  graph::Stream mid;
  {
    auto node = b.node_scope();
    mid = b.stateless("mid", b.source("src", nullptr), nullptr);
  }
  b.sink("out", mid);
  graph::Graph g = b.build();
  profile::Profiler prof(g);
  std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
  traces[g.find("src")] = wbtest::int_frames(2);
  EXPECT_THROW((void)prof.run(traces, 2), util::ContractError);
}

}  // namespace
}  // namespace wishbone
