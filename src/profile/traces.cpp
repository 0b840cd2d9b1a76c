#include "profile/traces.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>

#include "util/assert.hpp"

namespace wishbone::profile::traces {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

constexpr double kVoicedFraction = 0.4;  ///< share of voiced segments
constexpr double kPitchHz = 120.0;
constexpr double kAmplitude = 1200.0;  ///< voiced peak, ADC counts

constexpr double kSeizureFraction = 0.2;  ///< share of windows in episodes
constexpr double kBackgroundUv = 30.0;
constexpr double kSeizureUv = 150.0;
}  // namespace

std::vector<Frame> speech_trace(std::size_t num_frames,
                                const SpeechParams& p) {
  WB_REQUIRE(num_frames > 0, "speech_trace: need >= 1 frame");
  WB_REQUIRE(p.frame_samples > 0 && p.sample_rate_hz > 0,
             "speech_trace: bad params");
  std::mt19937 rng(p.seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  std::vector<Frame> out;
  out.reserve(num_frames);

  // Segment state machine: voiced / unvoiced / silence, with durations
  // of a few hundred milliseconds each.
  enum class Seg { kVoiced, kUnvoiced, kSilence };
  Seg seg = Seg::kSilence;
  std::size_t seg_left = 0;
  double phase = 0.0;

  const double dt = 1.0 / p.sample_rate_hz;
  for (std::size_t f = 0; f < num_frames; ++f) {
    std::vector<float> s(p.frame_samples);
    for (std::size_t i = 0; i < p.frame_samples; ++i) {
      if (seg_left == 0) {
        const double r = unif(rng);
        if (r < kVoicedFraction) {
          seg = Seg::kVoiced;
        } else if (r < kVoicedFraction + 0.2) {
          seg = Seg::kUnvoiced;
        } else {
          seg = Seg::kSilence;
        }
        // 100–400 ms segments.
        seg_left = static_cast<std::size_t>(
            (0.1 + 0.3 * unif(rng)) * p.sample_rate_hz);
      }
      --seg_left;

      double x = 0.0;
      switch (seg) {
        case Seg::kVoiced: {
          // Harmonic stack with 1/h rolloff; light jitter on pitch.
          const double pitch = kPitchHz * (1.0 + 0.02 * noise(rng));
          phase += kTwoPi * pitch * dt;
          for (int h = 1; h <= 6; ++h) {
            x += std::sin(phase * h) / static_cast<double>(h);
          }
          x *= kAmplitude;
          x += 0.05 * kAmplitude * noise(rng);
          break;
        }
        case Seg::kUnvoiced:
          x = 0.3 * kAmplitude * noise(rng);
          break;
        case Seg::kSilence:
          x = 0.02 * kAmplitude * noise(rng);  // mic / amplifier noise
          break;
      }
      // Clamp to the 12-bit ADC range (centered).
      x = std::clamp(x, -2048.0, 2047.0);
      s[i] = static_cast<float>(std::nearbyint(x));
    }
    out.emplace_back(std::move(s), Encoding::kInt16);
  }
  return out;
}

std::vector<Frame> eeg_trace(std::size_t num_windows, const EegParams& p) {
  WB_REQUIRE(num_windows > 0, "eeg_trace: need >= 1 window");
  WB_REQUIRE(p.window_samples > 0 && p.sample_rate_hz > 0,
             "eeg_trace: bad params");

  // Seizure episode schedule is derived from the base seed only, so all
  // channels of one recording see the same episodes (the per-channel
  // seed decorrelates waveform detail, not event timing).
  std::mt19937 sched_rng(p.seed);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<char> in_seizure(num_windows, 0);
  {
    std::size_t w = 0;
    while (w < num_windows) {
      if (unif(sched_rng) < kSeizureFraction / 4.0) {
        // Episodes last ~4 windows (8 s).
        for (std::size_t k = 0; k < 4 && w + k < num_windows; ++k) {
          in_seizure[w + k] = 1;
        }
        w += 4;
      } else {
        ++w;
      }
    }
  }

  std::mt19937 rng(p.seed * 7919u + static_cast<std::uint32_t>(p.channel));
  std::normal_distribution<double> noise(0.0, 1.0);
  const double dt = 1.0 / p.sample_rate_hz;

  std::vector<Frame> out;
  out.reserve(num_windows);
  double t = 0.0;
  double seiz_freq = 5.0;
  // One-pole lowpass state shapes white noise into a pink-ish background.
  double lp = 0.0;
  for (std::size_t w = 0; w < num_windows; ++w) {
    if (in_seizure[w] && (w == 0 || !in_seizure[w - 1])) {
      seiz_freq = 3.0 + 5.0 * unif(rng);  // 3–8 Hz per episode
    }
    std::vector<float> s(p.window_samples);
    for (std::size_t i = 0; i < p.window_samples; ++i, t += dt) {
      lp = 0.95 * lp + 0.05 * noise(rng);
      double x = kBackgroundUv * (6.0 * lp + 0.3 * noise(rng));
      x += 0.4 * kBackgroundUv * std::sin(kTwoPi * 10.0 * t);  // alpha
      if (in_seizure[w]) {
        x += kSeizureUv *
             std::sin(kTwoPi * seiz_freq * t +
                      0.2 * static_cast<double>(p.channel));
      }
      s[i] = static_cast<float>(x);
    }
    out.emplace_back(std::move(s), Encoding::kInt16);
  }
  return out;
}

}  // namespace wishbone::profile::traces
