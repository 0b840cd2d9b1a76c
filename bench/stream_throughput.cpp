// Streaming-throughput benchmark for the allocation-free SIMD runtime.
//
// Two layers, both A/B'd between the dispatched SIMD path and the
// scalar reference (simd::force_scalar) in the same binary:
//
//  1. End-to-end pipelines: the 22-channel EEG seizure detector (1412
//     operators) and the speech MFCC front end, run all-on-node in
//     streaming mode (sink collection off). Reported as samples/sec
//     and frames/sec, plus the steady-state heap allocations per event
//     measured with the counting global operator new — the contract is
//     exactly zero.
//
//  2. Per-kernel stages: FIR, mel filterbank, DCT-II, power-spectrum
//     FFT and one polyphase wavelet stage, reported as ns/sample for
//     each path.
//
// Absolute throughput depends on the host and is report-only (the repo
// convention set by the Fig. 6 benches); the machine-portable outputs
// — allocations per event and the SIMD:scalar speedup ratios — are
// what `bench/check_bench.py stream` gates in CI.
//
// Output: BENCH_stream.json in the working directory.
//
// Usage: bench_stream_throughput [eeg_events] [speech_events]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "bench_common.hpp"
#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/mel.hpp"
#include "dsp/simd.hpp"
#include "dsp/wavelet.hpp"
#include "graph/graph.hpp"
#include "profile/traces.hpp"
#include "runtime/executor.hpp"
#include "util/alloc_count.hpp"

using namespace wishbone;
using Clock = std::chrono::steady_clock;

namespace {

volatile float g_sink = 0.0f;  ///< defeats dead-code elimination

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PipelineResult {
  double simd_samples_per_sec = 0.0;
  double simd_frames_per_sec = 0.0;
  double scalar_samples_per_sec = 0.0;
  double scalar_frames_per_sec = 0.0;
  double allocs_per_event = 0.0;  ///< steady state, dispatched path
};

/// Runs `events` streaming events and returns wall seconds. The
/// executor keeps its pool and operator state across calls; callers
/// warm up first so the measured window is pure steady state.
double timed_run(runtime::PartitionedExecutor& ex,
                 const std::map<graph::OperatorId,
                                std::vector<graph::Frame>>& traces,
                 std::size_t events) {
  const Clock::time_point t0 = Clock::now();
  ex.run(traces, events);
  return seconds_since(t0);
}

/// End-to-end measurement of one app graph in streaming mode:
/// warmup, steady-state allocation check (differential, so per-run
/// fixed costs cancel), then timed SIMD and forced-scalar windows.
PipelineResult measure_pipeline(
    graph::Graph& g,
    const std::map<graph::OperatorId, std::vector<graph::Frame>>& traces,
    std::size_t events, std::size_t samples_per_event) {
  PipelineResult r;
  runtime::PartitionedExecutor ex(
      g, std::vector<graph::Side>(g.num_operators(), graph::Side::kNode));
  ex.set_collect_sink_output(false);

  dsp::simd::force_scalar(false);
  ex.run(traces, events / 4 + 8);  // warm pools, FIFOs, plan caches

  // Allocation differential: (long run) - (short run) isolates the
  // per-event heap traffic from per-run() fixed overhead.
  const std::size_t base = 16;
  const std::size_t a0 = util::allocation_count();
  ex.run(traces, base);
  const std::size_t a1 = util::allocation_count();
  ex.run(traces, 2 * base);
  const std::size_t a2 = util::allocation_count();
  const std::size_t d_short = a1 - a0;
  const std::size_t d_long = a2 - a1;
  r.allocs_per_event =
      d_long > d_short
          ? static_cast<double>(d_long - d_short) / static_cast<double>(base)
          : 0.0;

  const double simd_s = timed_run(ex, traces, events);
  r.simd_frames_per_sec = static_cast<double>(events) / simd_s;
  r.simd_samples_per_sec =
      static_cast<double>(events * samples_per_event) / simd_s;

  dsp::simd::force_scalar(true);
  ex.run(traces, 8);  // let scalar-path state settle
  const double scalar_s = timed_run(ex, traces, events);
  dsp::simd::force_scalar(false);
  r.scalar_frames_per_sec = static_cast<double>(events) / scalar_s;
  r.scalar_samples_per_sec =
      static_cast<double>(events * samples_per_event) / scalar_s;
  return r;
}

/// Median-of-3 ns/sample for `body` processing `samples_per_call`
/// samples per invocation, repeated until ~20ms of work per trial.
template <typename F>
double ns_per_sample(std::size_t samples_per_call, F&& body) {
  // Calibrate the repeat count to the body's own speed.
  std::size_t reps = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    const double s = seconds_since(t0);
    if (s >= 0.02 || reps >= (1u << 24)) break;
    reps *= 4;
  }
  double best = 1e300;
  for (int trial = 0; trial < 3; ++trial) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    best = std::min(best, seconds_since(t0));
  }
  return best * 1e9 /
         static_cast<double>(reps) / static_cast<double>(samples_per_call);
}

struct KernelAb {
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  [[nodiscard]] double speedup() const {
    return simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0;
  }
};

template <typename F>
KernelAb ab_kernel(std::size_t samples_per_call, F&& body) {
  KernelAb ab;
  dsp::simd::force_scalar(false);
  ab.simd_ns = ns_per_sample(samples_per_call, body);
  dsp::simd::force_scalar(true);
  ab.scalar_ns = ns_per_sample(samples_per_call, body);
  dsp::simd::force_scalar(false);
  return ab;
}

void emit_kernel(bench::Json& j, const std::string& key,
                 const KernelAb& ab) {
  j.set(key + "_ns_per_sample_scalar", ab.scalar_ns);
  j.set(key + "_ns_per_sample_simd", ab.simd_ns);
  j.set(key + "_speedup", ab.speedup());
  std::printf("  %-12s scalar %8.3f ns/sample   simd %8.3f ns/sample"
              "   speedup %.2fx\n",
              key.c_str(), ab.scalar_ns, ab.simd_ns, ab.speedup());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t eeg_events =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 64;
  const std::size_t speech_events =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 2000;

  bench::header("stream throughput",
                "allocation-free streaming runtime, SIMD vs scalar");
  std::printf("isa: %s (vectorized: %s)\n\n", dsp::simd::isa_name(),
              dsp::simd::vectorized() ? "yes" : "no");

  bench::Json j;
  j.set("bench", std::string("stream_throughput"));
  j.set("isa", std::string(dsp::simd::isa_name()));
  j.set("simd_compiled", static_cast<std::size_t>(
                             std::string(dsp::simd::isa_name()) != "scalar"
                                 ? 1 : 0));
  j.set("eeg_events", eeg_events);
  j.set("speech_events", speech_events);

  // ---------------------------------------------------- EEG end to end
  {
    apps::EegConfig cfg;  // 22 channels, 512-sample windows, 7 levels
    apps::EegApp app = apps::build_eeg_app(cfg);
    const std::size_t trace_len = 2 * eeg_events + 64;
    const auto traces = apps::eeg_traces(app, trace_len);
    const std::size_t samples_per_event = cfg.channels * cfg.window_samples;
    const PipelineResult r =
        measure_pipeline(app.g, traces, eeg_events, samples_per_event);
    std::printf("EEG  (%zu ops, %zu ch x %zu samples/window):\n",
                app.g.num_operators(), cfg.channels, cfg.window_samples);
    std::printf("  simd   %12.0f samples/s  %8.1f windows/s\n",
                r.simd_samples_per_sec, r.simd_frames_per_sec);
    std::printf("  scalar %12.0f samples/s  %8.1f windows/s\n",
                r.scalar_samples_per_sec, r.scalar_frames_per_sec);
    std::printf("  speedup %.2fx   allocs/event (steady) %.3f\n\n",
                r.simd_samples_per_sec / r.scalar_samples_per_sec,
                r.allocs_per_event);
    j.set("eeg_simd_samples_per_sec", r.simd_samples_per_sec);
    j.set("eeg_simd_frames_per_sec", r.simd_frames_per_sec);
    j.set("eeg_scalar_samples_per_sec", r.scalar_samples_per_sec);
    j.set("eeg_scalar_frames_per_sec", r.scalar_frames_per_sec);
    j.set("eeg_speedup",
          r.simd_samples_per_sec / r.scalar_samples_per_sec);
    j.set("eeg_allocs_per_event", r.allocs_per_event);
  }

  // ------------------------------------------------- speech end to end
  {
    apps::SpeechApp app = apps::build_speech_app();
    const std::size_t trace_len = 2 * speech_events + 64;
    const auto traces = apps::speech_traces(app, trace_len);
    const std::size_t samples_per_event = 200;  // kFrameSamples
    const PipelineResult r =
        measure_pipeline(app.g, traces, speech_events, samples_per_event);
    std::printf("speech (%zu ops, 200 samples/frame):\n",
                app.g.num_operators());
    std::printf("  simd   %12.0f samples/s  %8.1f frames/s\n",
                r.simd_samples_per_sec, r.simd_frames_per_sec);
    std::printf("  scalar %12.0f samples/s  %8.1f frames/s\n",
                r.scalar_samples_per_sec, r.scalar_frames_per_sec);
    std::printf("  speedup %.2fx   allocs/event (steady) %.3f\n\n",
                r.simd_samples_per_sec / r.scalar_samples_per_sec,
                r.allocs_per_event);
    j.set("speech_simd_samples_per_sec", r.simd_samples_per_sec);
    j.set("speech_simd_frames_per_sec", r.simd_frames_per_sec);
    j.set("speech_scalar_samples_per_sec", r.scalar_samples_per_sec);
    j.set("speech_scalar_frames_per_sec", r.scalar_frames_per_sec);
    j.set("speech_speedup",
          r.simd_samples_per_sec / r.scalar_samples_per_sec);
    j.set("speech_allocs_per_event", r.allocs_per_event);
  }

  // ------------------------------------------------- per-kernel stages
  std::printf("per-kernel (median of 3):\n");

  {  // 32-tap FIR over 512-sample frames (speech-class filtering).
    dsp::FirFilter fir(std::vector<float>(32, 0.03125f));
    std::vector<float> in(512, 0.5f), out(512);
    const KernelAb ab = ab_kernel(in.size(), [&] {
      fir.process_into(dsp::SignalView(in), dsp::MutSignalView(out));
      g_sink = g_sink + out[0];
    });
    emit_kernel(j, "fir32", ab);
  }

  {  // 4-tap FIR (the EEG polyphase branch filters).
    dsp::FirFilter fir(std::vector<float>{0.23f, 0.71f, 0.63f, -0.03f});
    std::vector<float> in(512, 0.5f), out(512);
    const KernelAb ab = ab_kernel(in.size(), [&] {
      fir.process_into(dsp::SignalView(in), dsp::MutSignalView(out));
      g_sink = g_sink + out[0];
    });
    emit_kernel(j, "fir4", ab);
  }

  {  // One polyphase wavelet stage on EEG-sized frames.
    dsp::PolyphaseStage stage(dsp::lowpass_polyphase());
    std::vector<float> in(512, 0.5f), out(512 / 2 + 1);
    const KernelAb ab = ab_kernel(in.size(), [&] {
      const std::size_t cnt =
          stage.process_into(dsp::SignalView(in), dsp::MutSignalView(out));
      g_sink = g_sink + out[cnt ? cnt - 1 : 0];
    });
    emit_kernel(j, "wavelet", ab);
  }

  {  // 256-point power spectrum (the speech FFT stage).
    std::vector<float> in(256, 0.5f), out(129);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<float>(i % 7) - 3.0f;
    dsp::SpectrumScratch scratch;
    const KernelAb ab = ab_kernel(in.size(), [&] {
      dsp::power_spectrum_into(dsp::SignalView(in), dsp::MutSignalView(out),
                               scratch);
      g_sink = g_sink + out[0];
    });
    emit_kernel(j, "fft256", ab);
  }

  {  // 32-filter mel filterbank over the 129-bin spectrum.
    dsp::MelFilterbank bank(32, 129, 8000.0);
    std::vector<float> spec(129), out(32);
    for (std::size_t i = 0; i < spec.size(); ++i)
      spec[i] = 1.0f + static_cast<float>(i % 5);
    const KernelAb ab = ab_kernel(spec.size(), [&] {
      bank.apply_into(dsp::SignalView(spec), dsp::MutSignalView(out));
      g_sink = g_sink + out[0];
    });
    emit_kernel(j, "mel", ab);
  }

  {  // DCT-II: 32 mel energies -> 13 cepstra.
    std::vector<float> in(32), out(13);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<float>(i) * 0.1f;
    const KernelAb ab = ab_kernel(in.size(), [&] {
      dsp::dct_ii_into(dsp::SignalView(in), dsp::MutSignalView(out));
      g_sink = g_sink + out[0];
    });
    emit_kernel(j, "dct", ab);
  }

  std::printf("\n");
  j.write("BENCH_stream.json");
  return 0;
}
