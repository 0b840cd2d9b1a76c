// Steady-state allocation tests: once the executor's buffer pool has
// warmed up, streaming events through a pipeline must not touch the
// heap at all, whether it runs wholly on the node or crosses a cut
// (marshal into the reused wire buffer, unmarshal into pooled storage).
// Measured with the counting global operator new (util/alloc_count.hpp)
// by comparing two runs of different length: any fixed per-run
// overhead cancels out, so the difference isolates per-event
// allocations. The pool's idle-buffer count must not depend on run
// length either: a pool that keeps storage it never handed out grows
// with every cut frame even when nothing allocates. Profiling, the
// partitioner's warm re-solve and closure-answered solve, and a whole
// compile have allocation budgets of their own (last four tests).
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "core/wishbone.hpp"
#include "graph/frame.hpp"
#include "graph/graph.hpp"
#include "graph/pinning.hpp"
#include "partition/partitioner.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"
#include "runtime/executor.hpp"
#include "test_helpers.hpp"
#include "util/alloc_count.hpp"

namespace wishbone {
namespace {

using apps::EegConfig;
using graph::Frame;
using graph::OperatorId;
using graph::Side;
using runtime::PartitionedExecutor;

/// Allocations attributable to streaming `extra` additional events:
/// runs the executor for `base` events, then `base + extra`, and
/// returns the difference in heap allocation counts between the two
/// runs. Zero means the steady state never allocates.
std::size_t per_event_allocs(
    PartitionedExecutor& ex,
    const std::map<OperatorId, std::vector<Frame>>& traces,
    std::size_t base, std::size_t extra) {
  const std::size_t a0 = util::allocation_count();
  ex.run(traces, base);
  const std::size_t a1 = util::allocation_count();
  ex.run(traces, base + extra);
  const std::size_t a2 = util::allocation_count();
  const std::size_t short_run = a1 - a0;
  const std::size_t long_run = a2 - a1;
  return long_run > short_run ? long_run - short_run : 0;
}

/// Both steady-state contracts on a warmed executor: no allocations
/// per event, and the same number of idle pool buffers after a short
/// and a long run.
void expect_steady_state(
    PartitionedExecutor& ex,
    const std::map<OperatorId, std::vector<Frame>>& traces) {
  EXPECT_EQ(per_event_allocs(ex, traces, 20, 80), 0u);
  ex.run(traces, 20);
  const std::size_t idle_short = ex.idle_buffers();
  ex.run(traces, 100);
  EXPECT_EQ(ex.idle_buffers(), idle_short);
}

TEST(AllocFree, EegSteadyStateMakesZeroAllocationsPerEvent) {
  EegConfig cfg;
  cfg.channels = 3;          // full wavelet cascade, smaller fan-in
  cfg.window_samples = 256;  // keep the test fast; depth unchanged
  apps::EegApp app = apps::build_eeg_app(cfg);
  const auto traces = apps::eeg_traces(app, 130);

  // All operators on the node: no cut edges, so nothing marshals.
  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  ex.set_collect_sink_output(false);

  // Warm up pools, FIFOs, and plan caches (join operators reach their
  // steady ring occupancy only after the cascade's pipeline fills).
  ex.run(traces, 30);

  expect_steady_state(ex, traces);
}

TEST(AllocFree, SpeechSteadyStateMakesZeroAllocationsPerEvent) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 130);

  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  ex.set_collect_sink_output(false);

  // First run populates the FFT/DCT plan caches and the buffer pool.
  ex.run(traces, 30);

  expect_steady_state(ex, traces);
}

/// Speech cut after `filtBank` (cut point 4): 32 float mel energies
/// cross the radio per frame.
TEST(AllocFree, SpeechCutAtFiltBankIsAllocationFree) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 130);
  PartitionedExecutor ex(app.g, app.assignment_for_cut(4));
  ex.set_collect_sink_output(false);
  ex.run(traces, 30);
  ASSERT_GT(ex.stats().cut_frames, 0u);

  expect_steady_state(ex, traces);
}

/// Speech cut after `cepstrals` (cut point 6): the paper's 52-byte
/// cepstral frames cross the radio.
TEST(AllocFree, SpeechCutAtCepstralsIsAllocationFree) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 130);
  PartitionedExecutor ex(app.g, app.assignment_for_cut(6));
  ex.set_collect_sink_output(false);
  ex.run(traces, 30);
  ASSERT_GT(ex.stats().cut_frames, 0u);

  expect_steady_state(ex, traces);
}

/// EEG under a Gumstix-style cut: each channel's first two wavelet
/// levels run on the node, so the int16-tagged output of `low2.add`
/// crosses the cut, fanning out to two server-side consumers
/// (`low3.even`, `low3.odd`) from one marshalled frame.
TEST(AllocFree, EegGumstixStyleInt16CutIsAllocationFree) {
  EegConfig cfg;
  cfg.channels = 3;
  cfg.window_samples = 256;
  apps::EegApp app = apps::build_eeg_app(cfg);
  const auto traces = apps::eeg_traces(app, 130);

  std::vector<Side> sides(app.g.num_operators(), Side::kServer);
  for (std::size_t ch = 0; ch < cfg.channels; ++ch) {
    const OperatorId last =
        app.g.find("ch" + std::to_string(ch) + ".low2.add");
    sides[last] = Side::kNode;
    for (OperatorId v : app.g.ancestors(last)) sides[v] = Side::kNode;
  }
  PartitionedExecutor ex(app.g, sides);
  ex.set_collect_sink_output(false);
  ex.run(traces, 30);
  ASSERT_GT(ex.stats().cut_frames, 0u);
  // 256 samples halved twice, two bytes each: the cut edge is int16.
  EXPECT_EQ(ex.stats().cut_payload_bytes,
            ex.stats().cut_frames * (5u + 2u * 64u));

  expect_steady_state(ex, traces);
}

/// Collecting sink output allocates (by design); streaming mode is the
/// allocation-free path. Guard that the flag actually switches modes.
TEST(AllocFree, CollectingSinkOutputStillWorks) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 10);
  PartitionedExecutor ex(app.g,
                         std::vector<Side>(app.g.num_operators(),
                                           Side::kNode));
  auto out = ex.run(traces, 10);
  ASSERT_EQ(out.count(app.sink), 1u);
  EXPECT_EQ(out[app.sink].size(), 10u);

  ex.set_collect_sink_output(false);
  auto out2 = ex.run(traces, 10);
  EXPECT_TRUE(out2.empty());
}

/// EEG-22 on Gumstix, profiled once: the problems the partitioner tests
/// below solve.
struct Eeg22OnGumstix {
  apps::EegApp app = apps::build_eeg_app();  // 22 channels
  profile::ProfileData pd;
  graph::PinAnalysis pins;
  profile::PlatformModel plat = profile::platform_by_name("Gumstix");
  double rate = 0.0;

  Eeg22OnGumstix() {
    const auto traces = apps::eeg_traces(app, 8);
    profile::Profiler prof(app.g);
    pd = prof.run(traces, 8);
    app.g.reset_state();
    pins = graph::analyze_pins(app.g, graph::Mode::kPermissive);
    rate = app.full_rate_events_per_sec();
  }
  [[nodiscard]] partition::PartitionProblem problem(double r) const {
    return partition::make_problem(app.g, pins, pd, plat, r);
  }
};

/// A CPU budget that only the node-pinned sources fit: the budget-free
/// closure (the cut EEG-22 on Gumstix gets, 0.016 of the CPU) breaks
/// it, and the LP optimum is the cut that ships the raw samples, proved
/// at the root.
partition::PartitionProblem sources_only_cpu(partition::PartitionProblem p) {
  std::vector<Side> pinned(p.num_vertices(), Side::kServer);
  for (std::size_t v = 0; v < pinned.size(); ++v) {
    if (p.vertices[v].req == graph::Requirement::kNode) pinned[v] = Side::kNode;
  }
  p.cpu_budget = partition::evaluate_assignment(p, pinned).cpu;
  return p;
}

/// The partition server's stale-cache path: EEG-22 on Gumstix under a
/// binding CPU budget, profile drifted by 1.5%, solved from the donor
/// basis of the previous solve. It takes about one LP iteration, so its
/// cost is fixed set-up — preprocess, ILP build, simplex state, loading
/// the basis — and the heap allocation count measures that set-up
/// without a clock. Budget: half of the 25,238 allocations this solve
/// made when the set-up still copied the problem, built the ILP twice
/// and reallocated the LU work matrix per factorization.
TEST(AllocFree, WarmEegResolveStaysWithinAllocationBudget) {
  const Eeg22OnGumstix eeg;
  const partition::PartitionProblem base =
      sources_only_cpu(eeg.problem(eeg.rate));
  const partition::PartitionProblem drifted =
      sources_only_cpu(eeg.problem(1.015 * eeg.rate));
  ASSERT_FALSE(wbtest::closure_fits(base));
  ASSERT_FALSE(wbtest::closure_fits(drifted));

  partition::PartitionOptions opts;
  opts.mip.max_nodes = 400;
  opts.mip.threads = 1;
  const partition::PartitionResult donor =
      partition::solve_partition(base, opts);
  ASSERT_TRUE(donor.feasible);
  opts.mip.warm_basis = donor.solver.final_basis;

  const std::uint64_t before = util::allocation_count();
  const partition::PartitionResult res =
      partition::solve_partition(drifted, opts);
  const std::uint64_t allocs = util::allocation_count() - before;
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(res.solver.warm_basis_loaded);
  EXPECT_LE(allocs, 25238u / 2) << allocs << " allocations";
}

/// The compile path's solve: EEG-22 on Gumstix fits, so the closure
/// answers it with preprocess, one max-flow and its certificate, and
/// no ILP. Budget: the 1,050 allocations measured when the closure fast
/// path landed plus ~11% headroom; the branch-and-bound path made
/// about 11,400 for the same solve.
TEST(AllocFree, ClosureAnsweredEeg22SolveStaysWithinAllocationBudget) {
  const Eeg22OnGumstix eeg;
  const partition::PartitionProblem p = eeg.problem(eeg.rate);
  ASSERT_TRUE(wbtest::closure_fits(p));
  partition::PartitionOptions opts;
  opts.mip.max_nodes = 400;
  opts.mip.threads = 1;
  (void)partition::solve_partition(p, opts);  // process-wide statics

  const std::uint64_t before = util::allocation_count();
  const partition::PartitionResult res = partition::solve_partition(p, opts);
  const std::uint64_t allocs = util::allocation_count() - before;
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.solver.lp_iterations, 0u);
  EXPECT_LE(allocs, 1170u) << allocs << " allocations";
}

/// Profiling is the executor's all-on-node run with meters attached, so
/// its frames come from the buffer pool. EEG-22 over 8 windows, counted
/// on a second run so the process-wide dsp plan caches are already warm
/// whatever ran before: what remains is the per-run set-up (executor,
/// meters, ProfileData), the pool's warm-up and the meters' loop
/// records, one per loop site, which move into ProfileData. Budget: the
/// 945 allocations measured once the meters kept one record per loop
/// site instead of one per loop execution, plus ~11% headroom; per-
/// execution records made 2,265, copying them into the profile 2,705,
/// and the profiler's own traversal, which allocated every emitted
/// frame, 11,569.
TEST(AllocFree, ProfilingEeg22StaysWithinAllocationBudget) {
  apps::EegApp app = apps::build_eeg_app();  // 22 channels
  const auto traces = apps::eeg_traces(app, 8);
  profile::Profiler prof(app.g);
  (void)prof.run(traces, 8);
  app.g.reset_state();

  const std::uint64_t before = util::allocation_count();
  const profile::ProfileData pd = prof.run(traces, 8);
  const std::uint64_t allocs = util::allocation_count() - before;
  ASSERT_EQ(pd.num_events, 8u);
  EXPECT_LE(allocs, 1050u) << allocs << " allocations";
}

/// A whole Wishbone::compile of EEG-22 on Gumstix at its full rate (a
/// compile_native request): profile, pin analysis, the closure-answered
/// solve and the dot text. Counted on a second compile so the dsp plan
/// caches are warm. Budget: the 3,507 allocations measured once
/// compile moved its profile into the report instead of copying it,
/// plus ~11% headroom; the copy and per-execution loop records made
/// 5,277.
TEST(AllocFree, CompileEeg22StaysWithinAllocationBudget) {
  apps::EegApp app = apps::build_eeg_app();  // 22 channels
  const auto traces = apps::eeg_traces(app, 8);
  core::CompileOptions opts;
  opts.partition.mip.threads = 1;
  core::Wishbone wb(app.g, profile::platform_by_name("Gumstix"), opts);
  const double rate = app.full_rate_events_per_sec();
  (void)wb.compile(traces, 8, rate);

  const std::uint64_t before = util::allocation_count();
  const core::CompileReport rep = wb.compile(traces, 8, rate);
  const std::uint64_t allocs = util::allocation_count() - before;
  ASSERT_TRUE(rep.feasible_at_requested_rate);
  EXPECT_EQ(rep.partition.node_partition_size, 1210u);
  EXPECT_LE(allocs, 3900u) << allocs << " allocations";
}

}  // namespace
}  // namespace wishbone
