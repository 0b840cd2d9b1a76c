// Synthetic sample-data generators.
//
// The paper profiles against programmer-supplied recordings (speech near
// a microphone; patient EEG). We do not ship recordings, so these
// generators synthesize traces with the same structural properties the
// profiler depends on: realistic amplitude statistics, voiced/unvoiced
// alternation for speech, and background-vs-seizure oscillation for EEG.
// Data rates and frame sizes — the quantities that actually drive the
// partitioner — match the paper exactly (8 kHz / 200-sample frames for
// speech; 256 Hz / 2-second windows for EEG).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/frame.hpp"

namespace wishbone::profile::traces {

using graph::Encoding;
using graph::Frame;

/// Speech-like audio: alternating voiced segments (harmonic stack with a
/// formant-ish envelope, 120 Hz pitch), unvoiced fricative noise, and
/// silence, 40% of segments voiced. Samples are centered 12-bit ADC
/// counts at a voiced amplitude of 1200 (TMote audio board, §6.2.3).
struct SpeechParams {
  double sample_rate_hz = 8000.0;
  std::size_t frame_samples = 200;  ///< 25 ms frames (40 fps)
  std::uint32_t seed = 1;
};

[[nodiscard]] std::vector<Frame> speech_trace(std::size_t num_frames,
                                              const SpeechParams& p = {});

/// EEG-like signal: a 30 uV pink-ish background with 10 Hz alpha,
/// interrupted by seizure episodes (about 20% of windows) of 150 uV
/// 3–8 Hz oscillatory waves (§6.1: "When a seizure occurs, oscillatory
/// waves below 20 Hz appear").
struct EegParams {
  double sample_rate_hz = 256.0;
  std::size_t window_samples = 512;  ///< 2-second windows
  std::uint32_t seed = 7;
  std::size_t channel = 0;  ///< decorrelates channels, same episodes
};

[[nodiscard]] std::vector<Frame> eeg_trace(std::size_t num_windows,
                                           const EegParams& p = {});

}  // namespace wishbone::profile::traces
