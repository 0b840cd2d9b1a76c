#include "runtime/fleet_sim.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wishbone::runtime {

using util::combine;
using util::mix_double;

namespace {

constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

/// Reflecting clamp of a multiplicative drift walk into
/// [FleetConfig::drift_min, FleetConfig::drift_max].
double reflect(double f) {
  constexpr double lo = FleetConfig::drift_min;
  constexpr double hi = FleetConfig::drift_max;
  if (f > hi) f = hi * hi / f;
  if (f < lo) f = lo * lo / f;
  return std::clamp(f, lo, hi);
}

}  // namespace

std::uint64_t FleetConfig::hash() const {
  std::uint64_t h = 0xF1EE7ULL;
  h = combine(h, num_nodes);
  h = combine(h, tree_fanout);
  h = combine(h, num_classes);
  h = mix_double(h, events_per_sec);
  h = mix_double(h, epoch_s);
  h = combine(h, epochs);
  h = mix_double(h, radio.payload_bytes);
  h = mix_double(h, radio.header_bytes);
  h = mix_double(h, radio.capacity_bytes_per_sec);
  h = mix_double(h, radio.tx_bytes_per_sec);
  h = mix_double(h, radio.baseline_delivery);
  h = mix_double(h, radio.saturation_knee);
  h = mix_double(h, radio.collapse_exponent);
  h = combine(h, radio_queue_msgs);
  h = mix_double(h, class_cpu_spread);
  h = mix_double(h, drift_step);
  h = mix_double(h, drift_min);
  h = mix_double(h, drift_max);
  h = mix_double(h, cpu_trend_per_epoch);
  h = mix_double(h, burst_slot_s);
  h = mix_double(h, reroute_s);
  h = combine(h, seed);
  h = combine(h, faults.hash());
  return h == 0 ? 1 : h;
}

FleetSim::FleetSim(partition::PartitionProblem base, FleetConfig cfg)
    : base_(std::move(base)),
      cfg_([&cfg] {
        cfg.faults.duration_s = cfg.epoch_s * static_cast<double>(cfg.epochs);
        return cfg;
      }()),
      faults_(cfg_.faults, cfg_.num_nodes, cfg_.seed),
      burst_(faults_.make_burst_chain(/*stream=*/0)) {
  WB_REQUIRE(cfg_.num_nodes >= 1 && cfg_.num_classes >= 1 &&
                 cfg_.num_classes <= cfg_.num_nodes,
             "fleet needs 1 <= classes <= nodes");
  WB_REQUIRE(cfg_.tree_fanout >= 2, "tree fanout must be >= 2");
  WB_REQUIRE(cfg_.events_per_sec > 0 && cfg_.epoch_s > 0 && cfg_.epochs >= 1,
             "fleet timing parameters must be positive");
  WB_REQUIRE(cfg_.radio.capacity_bytes_per_sec > 0 &&
                 cfg_.radio.tx_bytes_per_sec > 0,
             "radio model incomplete");
  WB_REQUIRE(cfg_.epoch_s >= FleetConfig::burst_slot_s,
             "an epoch must span at least one burst slot");
  base_.check();

  // Balanced collection tree: the first `fanout` nodes report straight
  // to the basestation, node i > fanout-1 to node i/fanout - 1.
  parent_.resize(cfg_.num_nodes);
  for (std::size_t i = 0; i < cfg_.num_nodes; ++i) {
    parent_[i] = i < cfg_.tree_fanout ? kRoot : i / cfg_.tree_fanout - 1;
  }

  // Heterogeneity: class base CPU factors span the configured spread;
  // per-node walks start at the class base.
  net::Xorshift64 root_rng(cfg_.seed ^ 0x5EEDF1EEULL);
  cpu_factor_.resize(cfg_.num_nodes);
  bw_factor_.resize(cfg_.num_nodes);
  node_rng_.reserve(cfg_.num_nodes);
  for (std::size_t i = 0; i < cfg_.num_nodes; ++i) {
    const std::size_t c = node_class(i);
    const double rel =
        cfg_.num_classes == 1
            ? 0.5
            : static_cast<double>(c) /
                  static_cast<double>(cfg_.num_classes - 1);
    cpu_factor_[i] = reflect(1.0 - cfg_.class_cpu_spread / 2.0 +
                             cfg_.class_cpu_spread * rel);
    bw_factor_[i] = 1.0;
    node_rng_.push_back(root_rng.fork(i));
  }

  plans_.resize(cfg_.num_classes);
  measured_cpu_scale_.assign(cfg_.num_classes, 1.0);
  measured_bw_scale_.assign(cfg_.num_classes, 1.0);
}

NodeSimParams FleetSim::nominal_workload(
    const std::vector<graph::Side>& sides) const {
  WB_REQUIRE(sides.size() == base_.num_vertices(),
             "assignment does not match the base problem");
  double cpu_fraction = 0.0;
  for (std::size_t v = 0; v < base_.num_vertices(); ++v) {
    if (sides[v] == graph::Side::kNode) cpu_fraction += base_.vertices[v].cpu;
  }
  double cut_bw = 0.0;
  for (const partition::ProblemEdge& e : base_.edges) {
    if (sides[e.from] != sides[e.to]) cut_bw += e.bandwidth;
  }
  NodeSimParams np;
  np.event_interval_us = 1e6 / cfg_.events_per_sec;
  np.work_per_event_us = cpu_fraction * 1e6 / cfg_.events_per_sec;
  np.payload_per_event = cut_bw / cfg_.events_per_sec;
  np.duration_s = cfg_.epoch_s;
  np.radio = cfg_.radio;
  np.radio_queue_msgs = FleetConfig::radio_queue_msgs;
  return np;
}

void FleetSim::set_assignment(std::size_t c, std::vector<graph::Side> sides,
                              double planned_cpu_scale,
                              double planned_channel_quality) {
  WB_REQUIRE(c < cfg_.num_classes, "no such node class");
  ClassPlan& plan = plans_[c];
  plan.nominal = nominal_workload(sides);
  plan.sides = std::move(sides);
  plan.planned_cpu_scale = planned_cpu_scale;
  plan.planned_channel_quality = planned_channel_quality;
}

double FleetSim::route_hops(std::size_t node, double t,
                            bool* reparented) const {
  double hops = 1.0;  // the node's own uplink
  std::size_t a = parent_[node];
  while (a != kRoot) {
    if (faults_.node_down(a, t)) {
      *reparented = true;  // skip the corpse; the detour costs one hop
    }
    hops += 1.0;
    a = parent_[a];
  }
  return hops;
}

EpochStats FleetSim::run_epoch() {
  WB_REQUIRE(!done(), "fleet run is complete");
  for (const ClassPlan& plan : plans_) {
    WB_REQUIRE(!plan.sides.empty(),
               "every class needs an assignment before the first epoch");
  }

  const double t0 = static_cast<double>(epoch_) * cfg_.epoch_s;
  const double t1 = t0 + cfg_.epoch_s;
  const double tmid = 0.5 * (t0 + t1);
  const std::size_t n = cfg_.num_nodes;

  // ---- drift: deterministic trend + per-node reflected random walk.
  for (std::size_t i = 0; i < n; ++i) {
    const double u_cpu = node_rng_[i].next_uniform();
    const double u_bw = node_rng_[i].next_uniform();
    cpu_factor_[i] = reflect(cpu_factor_[i] * (1.0 + cfg_.cpu_trend_per_epoch) *
                             (1.0 + cfg_.drift_step * (2.0 * u_cpu - 1.0)));
    bw_factor_[i] =
        reflect(bw_factor_[i] * (1.0 + cfg_.drift_step * (2.0 * u_bw - 1.0)));
  }

  // ---- Gilbert-Elliott burst survival for this epoch's airtime.
  const auto slots = static_cast<std::uint64_t>(
      std::max(1.0, std::floor(cfg_.epoch_s / FleetConfig::burst_slot_s + 0.5)));
  std::uint64_t lost_slots = 0;
  for (std::uint64_t s = 0; s < slots; ++s) lost_slots += burst_.lose() ? 1 : 0;
  const double burst_factor =
      1.0 - static_cast<double>(lost_slots) / static_cast<double>(slots);

  const double outage_s = faults_.outage_overlap(t0, t1);
  const double outage_frac = outage_s / cfg_.epoch_s;

  // ---- pass 1: per-node cooperative sim + offered load on the tree.
  std::vector<double> input(n), txf(n), hops(n), link(n), alive(n), reroute(n);
  std::vector<double> send_rate(n);
  double aggregate = 0.0;
  EpochStats st;
  st.epoch = epoch_;
  for (std::size_t i = 0; i < n; ++i) {
    const double down_s = faults_.node_down_overlap(i, t0, t1);
    alive[i] = 1.0 - down_s / cfg_.epoch_s;
    st.nodes_down += faults_.node_down(i, tmid) ? 1 : 0;

    bool reparented = false;
    hops[i] = route_hops(i, tmid, &reparented);
    st.reparented += reparented ? 1 : 0;
    link[i] = faults_.link_factor_overlap(i, t0, t1);

    // Reroute blackout: an ancestor crashed *during* this epoch (was up
    // at t0, down within the window) — the subtree re-parents blind.
    reroute[i] = 0.0;
    for (std::size_t a = parent_[i]; a != kRoot; a = parent_[a]) {
      if (faults_.node_down_overlap(a, t0, t1) > 0.0 &&
          !faults_.node_down(a, t0)) {
        reroute[i] = std::min(FleetConfig::reroute_s / cfg_.epoch_s, 1.0);
        break;
      }
    }

    if (alive[i] <= 0.0) {
      input[i] = txf[i] = send_rate[i] = 0.0;
      continue;
    }
    NodeSimParams np = plans_[node_class(i)].nominal;
    np.work_per_event_us *= cpu_factor_[i];
    np.payload_per_event *= bw_factor_[i];
    const NodeSimStats ns = simulate_node(np);
    input[i] = ns.input_fraction();
    txf[i] = ns.tx_fraction();
    send_rate[i] = ns.payload_rate(cfg_.epoch_s) * alive[i];
    aggregate += cfg_.radio.on_air(send_rate[i]) * hops[i];
  }

  // ---- pass 2: delivery (congestion charged once at the tree root,
  // everything else compounding per node) and fleet goodput.
  const double congestion = cfg_.radio.delivery_fraction(aggregate);
  double goodput_sum = 0.0, input_sum = 0.0, delivery_sum = 0.0;
  double link_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double per_hop =
        std::pow(cfg_.radio.baseline_delivery, hops[i] - 1.0);
    const double delivery = per_hop * link[i] * congestion * burst_factor *
                            (1.0 - outage_frac) * (1.0 - reroute[i]);
    goodput_sum += alive[i] * input[i] * txf[i] * delivery;
    input_sum += alive[i] * input[i];
    delivery_sum += txf[i] * delivery;
    link_sum += link[i];
  }

  st.goodput = goodput_sum / static_cast<double>(n);
  st.input_fraction = input_sum / static_cast<double>(n);
  st.delivery_fraction = delivery_sum / static_cast<double>(n);
  st.offered_on_air = aggregate;
  st.congestion_delivery = congestion;
  st.burst_factor = burst_factor;
  st.outage_s = outage_s;

  // ---- measured profile state (what a fleet profiler would report).
  std::vector<double> cpu_sum(cfg_.num_classes, 0.0);
  std::vector<double> bw_sum(cfg_.num_classes, 0.0);
  std::vector<std::size_t> alive_count(cfg_.num_classes, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i] <= 0.0) continue;
    const std::size_t c = node_class(i);
    cpu_sum[c] += cpu_factor_[i];
    bw_sum[c] += bw_factor_[i];
    ++alive_count[c];
  }
  st.class_cpu_scale.resize(cfg_.num_classes);
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    if (alive_count[c] > 0) {
      measured_cpu_scale_[c] =
          cpu_sum[c] / static_cast<double>(alive_count[c]);
      measured_bw_scale_[c] = bw_sum[c] / static_cast<double>(alive_count[c]);
    }
    st.class_cpu_scale[c] = measured_cpu_scale_[c];
  }
  // Channel quality relative to a clean, uncongested channel: bursts,
  // outages, link degradation AND the congestion shortfall. Including
  // congestion closes the adaptation loop — an over-offered channel
  // shrinks the usable net budget, which pushes the next solve toward
  // deeper (more compute on-node) cuts that decongest it.
  measured_quality_ = (congestion / cfg_.radio.baseline_delivery) *
                      burst_factor * (1.0 - outage_frac) *
                      (link_sum / static_cast<double>(n));
  st.measured_channel_quality = measured_quality_;

  // ---- what the installed plans promised (no faults, planned scales).
  double mean_depth = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double d = 1.0;
    for (std::size_t a = parent_[i]; a != kRoot; a = parent_[a]) d += 1.0;
    mean_depth += d;
  }
  mean_depth /= static_cast<double>(n);
  double agg_pred = 0.0;
  std::vector<double> in_pred(cfg_.num_classes), tx_pred(cfg_.num_classes);
  std::vector<std::size_t> class_count(cfg_.num_classes, 0);
  for (std::size_t i = 0; i < n; ++i) ++class_count[node_class(i)];
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    NodeSimParams np = plans_[c].nominal;
    np.work_per_event_us *= plans_[c].planned_cpu_scale;
    const NodeSimStats ns = simulate_node(np);
    in_pred[c] = ns.input_fraction();
    tx_pred[c] = ns.tx_fraction();
    agg_pred += static_cast<double>(class_count[c]) *
                cfg_.radio.on_air(ns.payload_rate(cfg_.epoch_s)) * mean_depth;
  }
  const double congestion_pred = cfg_.radio.delivery_fraction(agg_pred);
  const double per_hop_pred =
      std::pow(cfg_.radio.baseline_delivery, mean_depth - 1.0);
  double pred = 0.0;
  for (std::size_t c = 0; c < cfg_.num_classes; ++c) {
    pred += static_cast<double>(class_count[c]) * in_pred[c] * tx_pred[c] *
            per_hop_pred * congestion_pred *
            plans_[c].planned_channel_quality;
  }
  st.predicted_goodput = pred / static_cast<double>(n);

  ++epoch_;
  history_.push_back(st);

  // Publish the epoch's fleet view into the registry: gauges mirror
  // this EpochStats, counters accumulate the fault telemetry. Passive —
  // writes only, on sim values already computed, so attaching the
  // telemetry plane cannot perturb the A/B replay (tested).
  {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter* const epochs = reg.counter("wishbone_fleet_epochs");
    static obs::Gauge* const goodput = reg.gauge("wishbone_fleet_goodput");
    static obs::Gauge* const predicted =
        reg.gauge("wishbone_fleet_predicted_goodput");
    static obs::Gauge* const burst = reg.gauge("wishbone_fleet_burst_factor");
    static obs::Gauge* const down = reg.gauge("wishbone_fleet_nodes_down");
    static obs::Counter* const reparented =
        reg.counter("wishbone_fleet_reparented");
    static obs::Counter* const outage_ms =
        reg.counter("wishbone_fleet_outage_ms");
    epochs->inc();
    goodput->set(st.goodput);
    predicted->set(st.predicted_goodput);
    burst->set(st.burst_factor);
    down->set(static_cast<double>(st.nodes_down));
    reparented->inc(st.reparented);
    outage_ms->inc(static_cast<std::uint64_t>(st.outage_s * 1e3));
  }
  return st;
}

double FleetSim::measured_cpu_scale(std::size_t c) const {
  WB_REQUIRE(c < cfg_.num_classes, "no such node class");
  return measured_cpu_scale_[c];
}

double FleetSim::measured_bw_scale(std::size_t c) const {
  WB_REQUIRE(c < cfg_.num_classes, "no such node class");
  return measured_bw_scale_[c];
}

double FleetSim::measured_channel_quality() const { return measured_quality_; }

double FleetSim::planned_cpu_scale(std::size_t c) const {
  WB_REQUIRE(c < cfg_.num_classes, "no such node class");
  return plans_[c].planned_cpu_scale;
}

double FleetSim::planned_channel_quality(std::size_t c) const {
  WB_REQUIRE(c < cfg_.num_classes, "no such node class");
  return plans_[c].planned_channel_quality;
}

partition::PartitionProblem FleetSim::measured_problem(std::size_t c) const {
  WB_REQUIRE(c < cfg_.num_classes, "no such node class");
  partition::PartitionProblem p = base_;
  for (partition::ProblemVertex& v : p.vertices) {
    v.cpu *= measured_cpu_scale_[c];
  }
  for (partition::ProblemEdge& e : p.edges) {
    e.bandwidth *= measured_bw_scale_[c];
  }
  // The channel's exogenous quality shrinks the usable net budget; the
  // floor keeps the problem feasible enough to answer at all.
  p.net_budget = base_.net_budget * std::max(measured_quality_, 0.05);
  return p;
}

double FleetSim::mean_goodput() const {
  if (history_.empty()) return 0.0;
  double s = 0.0;
  for (const EpochStats& e : history_) s += e.goodput;
  return s / static_cast<double>(history_.size());
}

}  // namespace wishbone::runtime
