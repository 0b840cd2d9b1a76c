// Fleet-scale deployment simulation with fault injection and profile
// drift — the generalization of DeploymentSim (one homogeneous mote,
// one static profile, no faults) to the scenario the paper's Figs. 9-10
// only hint at: thousands of heterogeneous nodes whose measured
// profiles diverge from the ones the ILP solved against, under burst
// loss, crashes and basestation outages.
//
// Model, per epoch:
//
//  - every node runs the cooperative node model (node_sim) on its own
//    drifted workload: the class assignment's node-side CPU and cut
//    payload, scaled by a per-node multiplicative random walk plus a
//    deterministic per-class load trend (the "reality diverges from
//    the plan" forcing term);
//  - nodes route over an explicit balanced collection tree; a crashed
//    node sends nothing, its descendants re-parent around it (one
//    penalty hop per skipped ancestor, standing in for the longer
//    marginal link) after a reroute blackout in the crash epoch;
//  - channel delivery compounds per-hop baseline quality, per-node link
//    degradation, congestion charged once at the tree root from the
//    fleet's aggregate on-air load, Gilbert-Elliott burst survival, and
//    basestation outage time — all drawn from one replayable
//    FaultSchedule;
//  - goodput is the paper's: fraction of source samples fully processed
//    AND delivered, averaged over the whole fleet (crashed nodes count
//    as zeros: their samples are lost).
//
// The sim also tracks what the installed plans *promised*
// (predicted_goodput, from the profiles they were solved against) next
// to what the fleet *measured* — the divergence signal the online
// repartitioner (runtime/repartitioner.hpp) acts on. Everything is
// deterministic from (config, seed): two runs with equal inputs produce
// bit-identical epoch histories.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/faults.hpp"
#include "net/radio.hpp"
#include "partition/problem.hpp"
#include "runtime/node_sim.hpp"

namespace wishbone::runtime {

struct FleetConfig {
  std::size_t num_nodes = 500;
  std::size_t tree_fanout = 4;
  /// Heterogeneous node classes (platform flavors). Node i belongs to
  /// class i % num_classes; each class gets its own partition.
  std::size_t num_classes = 3;
  double events_per_sec = 2.0;  ///< per-node source event rate
  double epoch_s = 10.0;
  std::size_t epochs = 30;
  net::RadioModel radio;
  static constexpr std::size_t radio_queue_msgs = 32;

  /// Class c's baseline CPU-speed factor spans
  /// [1 - spread/2, 1 + spread/2] across classes (1.0 = the profiled
  /// platform; larger = slower, costs more CPU per event).
  double class_cpu_spread = 0.5;

  /// Per-node multiplicative random walk, one step per epoch, reflected
  /// into [drift_min, drift_max].
  double drift_step = 0.03;
  static constexpr double drift_min = 0.4;
  static constexpr double drift_max = 3.0;
  /// Deterministic per-epoch compounding of every node's CPU cost — the
  /// fleet-wide load creep that forces re-partitioning.
  double cpu_trend_per_epoch = 0.0;

  /// Granularity of the Gilbert-Elliott burst chain (one step per
  /// slot of shared-channel airtime).
  static constexpr double burst_slot_s = 0.1;

  /// Delivery blackout for a crashed node's descendants while the
  /// routing tree re-parents them (charged in the crash epoch).
  static constexpr double reroute_s = 2.0;

  std::uint64_t seed = 1;
  /// Fault schedule parameters; duration_s is overridden to the run
  /// length (epochs * epoch_s) at construction.
  net::FaultConfig faults;

  /// Fingerprint of every simulation parameter (faults included), for
  /// stamping benchmark output: (seed, hash) replays the run exactly.
  [[nodiscard]] std::uint64_t hash() const;
};

struct EpochStats {
  std::size_t epoch = 0;
  double goodput = 0.0;            ///< fleet mean, crashed nodes as zeros
  double predicted_goodput = 0.0;  ///< what the installed plans promised
  double input_fraction = 0.0;     ///< fleet mean CPU-side acceptance
  double delivery_fraction = 0.0;  ///< fleet mean network-side delivery
  double offered_on_air = 0.0;     ///< aggregate bytes/s on the channel
  double congestion_delivery = 1.0;
  double burst_factor = 1.0;       ///< Gilbert-Elliott survival
  double outage_s = 0.0;           ///< basestation dark time
  std::size_t nodes_down = 0;      ///< crashed at the epoch midpoint
  std::size_t reparented = 0;      ///< routing around a dead ancestor
  double measured_channel_quality = 1.0;
  std::vector<double> class_cpu_scale;  ///< measured drift per class
};

class FleetSim {
 public:
  /// `base` is the profiled application at nominal (scale 1.0) load;
  /// class assignments index its vertices.
  FleetSim(partition::PartitionProblem base, FleetConfig cfg);

  [[nodiscard]] std::size_t num_classes() const { return cfg_.num_classes; }
  [[nodiscard]] std::size_t node_class(std::size_t node) const {
    return node % cfg_.num_classes;
  }

  /// Installs the partition for class `c` (sides over the base
  /// problem's vertices), recording the profile scale and channel
  /// quality the plan was solved against — the reference point for
  /// divergence detection and predicted goodput.
  void set_assignment(std::size_t c, std::vector<graph::Side> sides,
                      double planned_cpu_scale = 1.0,
                      double planned_channel_quality = 1.0);

  /// Simulates the next epoch; appends to history() and returns it.
  EpochStats run_epoch();
  [[nodiscard]] bool done() const { return epoch_ >= cfg_.epochs; }

  // ---- measured state (valid after >= 1 epoch) ----
  /// Mean CPU drift factor a profiler would report for class c (over
  /// the class's alive nodes, last epoch).
  [[nodiscard]] double measured_cpu_scale(std::size_t c) const;
  [[nodiscard]] double measured_bw_scale(std::size_t c) const;
  /// Last epoch's delivered fraction relative to clean-channel
  /// baseline — the factor by which the usable net budget shrank.
  [[nodiscard]] double measured_channel_quality() const;
  [[nodiscard]] double planned_cpu_scale(std::size_t c) const;
  [[nodiscard]] double planned_channel_quality(std::size_t c) const;

  /// The base problem rescaled to class c's measured profile, with the
  /// net budget scaled by the measured channel quality — what an online
  /// repartitioner submits to the solver.
  [[nodiscard]] partition::PartitionProblem measured_problem(
      std::size_t c) const;

  [[nodiscard]] const net::FaultSchedule& faults() const { return faults_; }
  [[nodiscard]] const FleetConfig& config() const { return cfg_; }
  [[nodiscard]] const partition::PartitionProblem& base_problem() const {
    return base_;
  }
  [[nodiscard]] std::size_t current_epoch() const { return epoch_; }
  [[nodiscard]] const std::vector<EpochStats>& history() const {
    return history_;
  }
  /// Mean goodput over all completed epochs (the A/B headline).
  [[nodiscard]] double mean_goodput() const;

 private:
  struct ClassPlan {
    std::vector<graph::Side> sides;
    NodeSimParams nominal;           ///< workload at scale 1.0
    double planned_cpu_scale = 1.0;
    double planned_channel_quality = 1.0;
    double predicted_goodput = 0.0;  ///< at the planned profile, no faults
  };

  /// Node-side CPU us/event and cut payload bytes/event of `sides` at
  /// nominal scale.
  [[nodiscard]] NodeSimParams nominal_workload(
      const std::vector<graph::Side>& sides) const;
  /// Route length of `node` at time t, skipping crashed ancestors (one
  /// penalty hop per skip); reports whether any ancestor was skipped.
  [[nodiscard]] double route_hops(std::size_t node, double t,
                                  bool* reparented) const;

  partition::PartitionProblem base_;
  FleetConfig cfg_;
  net::FaultSchedule faults_;
  net::GilbertElliott burst_;

  std::vector<std::size_t> parent_;   ///< kRoot = reports to basestation
  std::vector<double> cpu_factor_;    ///< per-node drift walk (incl. class base)
  std::vector<double> bw_factor_;
  std::vector<net::Xorshift64> node_rng_;
  std::vector<ClassPlan> plans_;

  std::size_t epoch_ = 0;
  std::vector<EpochStats> history_;
  std::vector<double> measured_cpu_scale_;  ///< per class, last epoch
  std::vector<double> measured_bw_scale_;
  double measured_quality_ = 1.0;
};

}  // namespace wishbone::runtime
