// Online re-partitioning control loop: the piece that closes the
// Wishbone feedback cycle. The ILP partitions against a *profiled*
// reality; FleetSim measures the deployed one drifting away from it.
// This loop watches the divergence between measured and predicted
// goodput and, when it leaves a hysteresis band, re-solves every node
// class through the PartitionServer against the fleet's measured
// profiles.
//
// The solver is treated as an unreliable dependency: every request
// carries a deadline, timeouts retry with exponential backoff and
// seeded jitter, and when the solver cannot answer in time the loop
// degrades instead of stalling:
//
//   rung 1  fresh solve      (within deadline, possibly retried)
//   rung 2  stale last-good  (the previous successful plan, if not
//                             older than stale_max_epochs)
//   rung 3  server baseline  (all-at-basestation, partition::
//                             server_baseline — needs no solver at all)
//
// The fleet always has *some* installed plan; an optimizer outage
// costs goodput, never liveness.
//
// Two modes: with server workers > 0 the loop blocks on timed futures
// (wall-clock latencies are real); with workers == 0 and pump_server
// set it drains PartitionServer::run_one() on the calling thread, which
// makes an entire fleet run bit-reproducible from (seed, config) — the
// mode the A/B benchmark uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/stochastic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/fleet_sim.hpp"
#include "serve/server.hpp"

namespace wishbone::runtime {

struct RepartitionerConfig {
  /// Hysteresis band on |measured - predicted| / predicted goodput:
  /// re-solving arms above `trigger_divergence` and only re-arms after
  /// dropping below `clear_divergence`.
  double trigger_divergence = 0.15;
  double clear_divergence = 0.05;
  /// While divergence stays above the trigger, re-solve at most every
  /// `cooldown_epochs` epochs.
  std::size_t cooldown_epochs = 2;

  /// Per-attempt solver deadline (enforced by future::wait_for and the
  /// server's own admission/shedding). Ignored in pump mode.
  double deadline_s = 0.5;
  /// Rung-1 attempts per class and round; retries back off
  /// exponentially with seeded jitter (repartitioner.cpp).
  static constexpr std::size_t max_attempts = 3;

  /// A stale plan older than this many epochs falls through to the
  /// baseline rung.
  std::size_t stale_max_epochs = 10;

  std::uint64_t seed = 1;  ///< jitter stream

  /// workers == 0 determinism mode: drain server.run_one() on the
  /// calling thread instead of waiting on the clock; deadlines are
  /// disabled so results depend only on (seed, config).
  bool pump_server = false;
};

enum class PlanSource {
  kFresh,     ///< solved against the measured profile within deadline
  kStale,     ///< kept the previous successful plan
  kBaseline,  ///< all-at-basestation fallback
};

/// Why a rung-1 solver attempt failed. Previously every path collapsed
/// into one failed_attempts counter; the breakdown tells "the solver
/// was down" (shutdown) apart from "the solver was slow" (deadline,
/// expired) and "the solver answered garbage" (infeasible).
enum class ReplanFailure {
  kNone,         ///< no failure (attempt succeeded / no attempt yet)
  kPumpStalled,  ///< pump mode drained the queue without an answer
  kDeadline,     ///< this round's future::wait_for timed out
  kShutdown,     ///< server answered ResponseSource::kShutdown
  kExpired,      ///< server shed the request past its deadline
  kInfeasible,   ///< solve landed but the partition was infeasible
};

/// Stable label for metrics/bench JSON (e.g. "deadline").
[[nodiscard]] const char* to_string(ReplanFailure f);

/// One class's outcome of a re-planning round.
struct RepartitionDecision {
  std::size_t node_class = 0;
  PlanSource source = PlanSource::kFresh;
  std::size_t attempts = 0;   ///< solver attempts made
  double latency_s = 0.0;     ///< wall time to an installed plan
  bool cache_hit = false;     ///< answered from the serve LRU
  /// Failure mode of the *last* rung-1 attempt — the reason the ladder
  /// degraded when source != kFresh, kNone otherwise.
  ReplanFailure last_failure = ReplanFailure::kNone;
};

/// A reading of a Repartitioner's counters. triggers reads its
/// wishbone_repartitioner_triggers counter, the rung fields its
/// wishbone_repartitioner_rungs{rung=...} counters and the failed_*
/// fields its wishbone_repartitioner_failed_attempts{reason=...} ones.
struct RepartitionerStats {
  std::size_t checks = 0;           ///< epochs inspected
  std::size_t triggers = 0;         ///< rounds that re-planned
  std::size_t fresh_solves = 0;     ///< rung-1 outcomes (per class)
  std::size_t stale_served = 0;     ///< rung-2 outcomes
  std::size_t baseline_served = 0;  ///< rung-3 outcomes
  std::size_t retries = 0;          ///< extra solver attempts
  std::size_t failed_attempts = 0;  ///< sum of the per-reason counts
  std::size_t failed_pump_stalled = 0;
  std::size_t failed_deadline = 0;
  std::size_t failed_shutdown = 0;
  std::size_t failed_expired = 0;
  std::size_t failed_infeasible = 0;
};

class Repartitioner {
 public:
  Repartitioner(serve::PartitionServer& server, FleetSim& fleet,
                RepartitionerConfig cfg);

  /// Solves and installs the initial plan for every class (profiles at
  /// nominal scale). Runs the same degradation ladder as re-planning,
  /// so even a dead-on-arrival solver yields a running fleet.
  std::vector<RepartitionDecision> install_initial_plans();

  /// Inspects the epoch the fleet just completed; re-plans every class
  /// when the divergence trips the hysteresis. Returns one decision per
  /// class when a round ran, empty otherwise.
  std::vector<RepartitionDecision> on_epoch(const EpochStats& epoch);

  [[nodiscard]] bool diverged() const { return diverged_; }
  [[nodiscard]] RepartitionerStats stats() const;
  [[nodiscard]] const RepartitionerConfig& config() const { return cfg_; }

  /// Attaches a flight recorder (not owned; nullptr detaches). The
  /// recorder snapshots on divergence triggers and on rung transitions
  /// with the fleet epoch as sim-time. Purely passive — attaching one
  /// cannot change any decision (the A/B replay test asserts this).
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  /// Walks the ladder for one class and installs the result.
  RepartitionDecision replan_class(std::size_t cls);
  std::vector<RepartitionDecision> replan_all();
  /// Counts one failed rung-1 attempt on its
  /// wishbone_repartitioner_failed_attempts{reason=...} counter
  /// (kNone counts nothing).
  void count_failure(ReplanFailure reason);

  serve::PartitionServer& server_;
  FleetSim& fleet_;
  RepartitionerConfig cfg_;
  net::Xorshift64 jitter_;

  struct LastGood {
    std::vector<graph::Side> sides;
    std::size_t epoch = 0;  ///< fleet epoch when obtained
    bool valid = false;
  };
  std::vector<LastGood> last_good_;

  bool diverged_ = false;
  std::size_t last_replan_epoch_ = 0;
  bool replanned_once_ = false;

  // Counters. The exported ones attach to the global registry when they
  // first move, so a run exports the series its events produced.
  std::size_t checks_ = 0;
  std::size_t retries_ = 0;
  std::optional<obs::InstanceCounter> triggers_;
  std::optional<obs::InstanceCounter> rungs_[3];     ///< by PlanSource
  std::optional<obs::InstanceCounter> failures_[5];  ///< by ReplanFailure-1

  obs::FlightRecorder* recorder_ = nullptr;
  /// Previous round's rung per class (-1 = no round yet), for
  /// rung-transition detection.
  std::vector<int> prev_source_;
};

}  // namespace wishbone::runtime
