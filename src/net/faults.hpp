// Deterministic fault injection for fleet-scale deployment simulation.
//
// The analytic RadioModel and StochasticChannel model *average*
// congestion behavior; real deployments additionally see bursty
// interference, node crashes and basestation maintenance windows — the
// regimes where a profile-driven partition either adapts or dies. This
// layer generates all of those faults from one (seed, config) pair:
//
//  - Gilbert-Elliott two-state burst loss (GilbertElliott,
//    BurstyChannel): a Markov chain alternating a mostly-clean "good"
//    state with lossy "bad" bursts, layered multiplicatively on top of
//    StochasticChannel's congestion draws. Mean bad-burst length is
//    1 / p_bad_to_good.
//  - Per-node crash/reboot windows: a configured fraction of the fleet
//    crashes once, at a seeded time, for a seeded duration.
//  - Link-degradation events: a node's link quality drops to a seeded
//    factor for a seeded window (foliage, a parked truck, a duty-cycle
//    bug).
//  - Basestation outage intervals: nothing is delivered fleet-wide
//    while the collection root is down.
//
// Everything is precomputed at construction from independent child
// PRNG streams (Xorshift64::fork), so queries are pure lookups and a
// schedule is fully replayable — and shareable between the static and
// adaptive arms of an A/B run — from (seed, config) alone.
// FaultConfig::hash() fingerprints the config so benchmark snapshots
// can stamp exactly which schedule produced them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/stochastic.hpp"

namespace wishbone::net {

struct GilbertElliottParams {
  double p_good_to_bad = 0.01;  ///< per-step entry into a loss burst
  double p_bad_to_good = 0.25;  ///< 1 / mean burst length
  static constexpr double loss_good = 0.0;  ///< loss probability, good state
  double loss_bad = 0.8;        ///< loss probability inside a burst
};

/// The two-state Markov loss chain. One step per message (or per time
/// slice, the caller picks the granularity).
class GilbertElliott {
 public:
  GilbertElliott(GilbertElliottParams params, std::uint64_t seed);

  /// Advances one step; true = this message/slice is lost.
  [[nodiscard]] bool lose();

  [[nodiscard]] bool in_bad() const { return bad_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] std::uint64_t bad_steps() const { return bad_steps_; }
  /// Completed good->bad transitions (number of bursts entered).
  [[nodiscard]] std::uint64_t bursts() const { return bursts_; }
  [[nodiscard]] const GilbertElliottParams& params() const { return params_; }

 private:
  GilbertElliottParams params_;
  Xorshift64 rng_;
  bool bad_ = false;
  std::uint64_t steps_ = 0;
  std::uint64_t bad_steps_ = 0;
  std::uint64_t bursts_ = 0;
};

/// StochasticChannel with Gilbert-Elliott burst loss layered on top: a
/// message must survive both the congestion draw and the burst chain.
class BurstyChannel {
 public:
  BurstyChannel(StochasticChannel channel, GilbertElliottParams ge,
                std::uint64_t seed);

  [[nodiscard]] bool try_deliver(double per_node_payload_rate);
  [[nodiscard]] std::uint64_t deliver_count(double per_node_payload_rate,
                                            std::uint64_t messages);

  [[nodiscard]] const GilbertElliott& chain() const { return ge_; }

 private:
  StochasticChannel channel_;
  GilbertElliott ge_;
};

struct CrashWindow {
  std::size_t node = 0;
  double down_s = 0.0;  ///< crash instant
  double up_s = 0.0;    ///< reboot instant
};

struct LinkDegradation {
  std::size_t node = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double delivery_factor = 1.0;  ///< multiplies the node's link quality
};

struct OutageWindow {
  double start_s = 0.0;
  double end_s = 0.0;
};

struct FaultConfig {
  double duration_s = 300.0;

  /// Fraction of the fleet that crashes exactly once during the run.
  double crash_fraction = 0.05;
  double crash_min_down_s = 20.0;
  double crash_max_down_s = 60.0;

  /// Fraction of the fleet whose link degrades for one window; each
  /// window's length and link-quality factor are drawn from these ranges.
  double degrade_fraction = 0.10;
  static constexpr double degrade_min_factor = 0.3;
  static constexpr double degrade_max_factor = 0.8;
  static constexpr double degrade_min_s = 15.0;
  static constexpr double degrade_max_s = 45.0;

  std::size_t basestation_outages = 1;
  double outage_min_s = 5.0;
  double outage_max_s = 15.0;

  GilbertElliottParams ge;

  /// Order-sensitive fingerprint of every field, for stamping benchmark
  /// output: (seed, hash) identifies a schedule exactly.
  [[nodiscard]] std::uint64_t hash() const;
};

class FaultSchedule {
 public:
  FaultSchedule(const FaultConfig& cfg, std::size_t num_nodes,
                std::uint64_t seed);

  [[nodiscard]] bool node_down(std::size_t node, double t) const;
  /// Seconds of [t0, t1) the node spends crashed.
  [[nodiscard]] double node_down_overlap(std::size_t node, double t0,
                                         double t1) const;
  /// Link-quality factor at instant t (1.0 = clean).
  [[nodiscard]] double link_factor(std::size_t node, double t) const;
  /// Time-averaged link-quality factor over [t0, t1).
  [[nodiscard]] double link_factor_overlap(std::size_t node, double t0,
                                           double t1) const;
  [[nodiscard]] bool basestation_down(double t) const;
  /// Seconds of [t0, t1) the basestation spends dark.
  [[nodiscard]] double outage_overlap(double t0, double t1) const;

  /// Fresh burst-loss chain drawn from this schedule's seed; `stream`
  /// distinguishes independent consumers (e.g. per simulation arm).
  [[nodiscard]] GilbertElliott make_burst_chain(std::uint64_t stream = 0) const;

  [[nodiscard]] const std::vector<CrashWindow>& crashes() const {
    return crashes_;
  }
  [[nodiscard]] const std::vector<LinkDegradation>& degradations() const {
    return degradations_;
  }
  [[nodiscard]] const std::vector<OutageWindow>& outages() const {
    return outages_;
  }
  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

 private:
  FaultConfig cfg_;
  std::size_t num_nodes_;
  std::uint64_t seed_;
  std::vector<CrashWindow> crashes_;              ///< sorted by node
  std::vector<LinkDegradation> degradations_;     ///< sorted by node
  /// Per-node index into crashes_/degradations_ (at most one each), or
  /// npos. O(1) queries for the per-epoch hot loop.
  std::vector<std::size_t> crash_of_node_;
  std::vector<std::size_t> degradation_of_node_;
  std::vector<OutageWindow> outages_;             ///< sorted, disjoint
};

}  // namespace wishbone::net
