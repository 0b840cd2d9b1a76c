// Microbenchmarks (google-benchmark): throughput of the hot primitives
// underneath the figure benches — DSP kernels, the profiler, the
// Simplex core and end-to-end partitioning. Useful for tracking
// regressions in the substrate itself.
#include <benchmark/benchmark.h>

#include "apps/fig3.hpp"
#include "apps/speech.hpp"
#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mel.hpp"
#include "dsp/simd.hpp"
#include "dsp/wavelet.hpp"
#include "graph/pinning.hpp"
#include "ilp/simplex.hpp"
#include "partition/formulation.hpp"
#include "partition/partitioner.hpp"
#include "profile/profiler.hpp"
#include "profile/traces.hpp"

using namespace wishbone;

static void BM_FftMagnitude(benchmark::State& state) {
  std::vector<float> x(static_cast<std::size_t>(state.range(0)), 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::magnitude_spectrum(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftMagnitude)->Arg(256)->Arg(1024)->Arg(4096);

static void BM_FirFilter(benchmark::State& state) {
  dsp::FirFilter fir(std::vector<float>(
      static_cast<std::size_t>(state.range(0)), 0.1f));
  std::vector<float> frame(512, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fir.process(frame));
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FirFilter)->Arg(4)->Arg(16)->Arg(64);

static void BM_Dct13(benchmark::State& state) {
  std::vector<float> x(32, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::dct_ii(x, 13));
  }
}
BENCHMARK(BM_Dct13);

// ---- per-kernel ns/sample, dispatched-SIMD vs forced-scalar --------
// range(0) selects the path: 0 = dispatched (SIMD when available),
// 1 = forced scalar reference. ns/sample = time / items_processed.

static void BM_FirProcessInto(benchmark::State& state) {
  dsp::simd::force_scalar(state.range(0) == 1);
  dsp::FirFilter fir(std::vector<float>(32, 0.03125f));
  std::vector<float> in(512, 0.5f), out(512);
  for (auto _ : state) {
    fir.process_into(dsp::SignalView(in), dsp::MutSignalView(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 512);
  dsp::simd::force_scalar(false);
}
BENCHMARK(BM_FirProcessInto)->Arg(0)->Arg(1);

static void BM_WaveletStage(benchmark::State& state) {
  dsp::simd::force_scalar(state.range(0) == 1);
  dsp::PolyphaseStage stage(dsp::lowpass_polyphase());
  std::vector<float> in(512, 0.5f), out(512 / 2 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stage.process_into(dsp::SignalView(in), dsp::MutSignalView(out)));
  }
  state.SetItemsProcessed(state.iterations() * 512);
  dsp::simd::force_scalar(false);
}
BENCHMARK(BM_WaveletStage)->Arg(0)->Arg(1);

static void BM_PowerSpectrum256(benchmark::State& state) {
  dsp::simd::force_scalar(state.range(0) == 1);
  std::vector<float> in(256), out(129);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(i % 7) - 3.0f;
  dsp::SpectrumScratch scratch;
  for (auto _ : state) {
    dsp::power_spectrum_into(dsp::SignalView(in), dsp::MutSignalView(out),
                             scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
  dsp::simd::force_scalar(false);
}
BENCHMARK(BM_PowerSpectrum256)->Arg(0)->Arg(1);

static void BM_MelApply(benchmark::State& state) {
  dsp::simd::force_scalar(state.range(0) == 1);
  dsp::MelFilterbank bank(32, 129, 8000.0);
  std::vector<float> spec(129, 1.0f), out(32);
  for (auto _ : state) {
    bank.apply_into(dsp::SignalView(spec), dsp::MutSignalView(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 129);
  dsp::simd::force_scalar(false);
}
BENCHMARK(BM_MelApply)->Arg(0)->Arg(1);

static void BM_DctInto(benchmark::State& state) {
  dsp::simd::force_scalar(state.range(0) == 1);
  std::vector<float> in(32, 1.0f), out(13);
  for (auto _ : state) {
    dsp::dct_ii_into(dsp::SignalView(in), dsp::MutSignalView(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
  dsp::simd::force_scalar(false);
}
BENCHMARK(BM_DctInto)->Arg(0)->Arg(1);

static void BM_SpeechTraceGen(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile::traces::speech_trace(40));
  }
  state.SetItemsProcessed(state.iterations() * 40 * 200);
}
BENCHMARK(BM_SpeechTraceGen);

static void BM_ProfileSpeechApp(benchmark::State& state) {
  apps::SpeechApp app = apps::build_speech_app();
  const auto traces = apps::speech_traces(app, 40);
  for (auto _ : state) {
    profile::Profiler prof(app.g);
    benchmark::DoNotOptimize(prof.run(traces, 40));
    app.g.reset_state();
  }
  state.SetItemsProcessed(state.iterations() * 40);
}
BENCHMARK(BM_ProfileSpeechApp);

static void BM_SimplexFig3Relaxation(benchmark::State& state) {
  const auto p = apps::fig3_problem();
  const auto lp =
      partition::build_ilp(p, partition::Formulation::kRestricted);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::SimplexState(lp).solve());
  }
}
BENCHMARK(BM_SimplexFig3Relaxation);

static void BM_PartitionSpeechOnMote(benchmark::State& state) {
  apps::SpeechApp app = apps::build_speech_app();
  profile::Profiler prof(app.g);
  const auto pd = prof.run(apps::speech_traces(app, 40), 40);
  app.g.reset_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::partition_graph(
        app.g, pd, profile::tmote_sky(), 2.0));
  }
}
BENCHMARK(BM_PartitionSpeechOnMote);

BENCHMARK_MAIN();
