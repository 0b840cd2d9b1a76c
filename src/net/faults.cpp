#include "net/faults.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wishbone::net {

using util::combine;
using util::mix_double;

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Seconds of [a0, a1) ∩ [b0, b1).
double overlap_s(double a0, double a1, double b0, double b1) {
  const double lo = std::max(a0, b0);
  const double hi = std::min(a1, b1);
  return hi > lo ? hi - lo : 0.0;
}

/// Deterministic choice of k distinct nodes out of n (partial
/// Fisher-Yates over an index array).
std::vector<std::size_t> pick_nodes(std::size_t n, std::size_t k,
                                    Xorshift64& rng) {
  std::vector<std::size_t> ix(n);
  for (std::size_t i = 0; i < n; ++i) ix[i] = i;
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next() % (n - i));
    std::swap(ix[i], ix[j]);
  }
  ix.resize(k);
  std::sort(ix.begin(), ix.end());
  return ix;
}

}  // namespace

// ------------------------------------------------------ GilbertElliott

GilbertElliott::GilbertElliott(GilbertElliottParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  WB_REQUIRE(params_.p_good_to_bad >= 0.0 && params_.p_good_to_bad <= 1.0 &&
                 params_.p_bad_to_good > 0.0 && params_.p_bad_to_good <= 1.0,
             "Gilbert-Elliott transition probabilities out of range");
  WB_REQUIRE(params_.loss_bad >= 0.0 && params_.loss_bad <= 1.0,
             "Gilbert-Elliott loss probability out of range");
}

bool GilbertElliott::lose() {
  // Transition first, then draw the loss from the *new* state, so a
  // burst's first message already suffers burst loss.
  if (bad_) {
    if (rng_.next_uniform() < params_.p_bad_to_good) bad_ = false;
  } else if (rng_.next_uniform() < params_.p_good_to_bad) {
    bad_ = true;
    ++bursts_;
  }
  ++steps_;
  if (bad_) ++bad_steps_;
  const double loss =
      bad_ ? params_.loss_bad : GilbertElliottParams::loss_good;
  return rng_.next_uniform() < loss;
}

// ------------------------------------------------------- BurstyChannel

BurstyChannel::BurstyChannel(StochasticChannel channel,
                             GilbertElliottParams ge, std::uint64_t seed)
    : channel_(std::move(channel)), ge_(ge, seed) {}

bool BurstyChannel::try_deliver(double per_node_payload_rate) {
  // Evaluate both draws unconditionally: the burst chain must advance
  // once per message regardless of the congestion outcome, or the
  // burst process would depend on the offered load.
  const bool congestion_ok = channel_.try_deliver(per_node_payload_rate);
  const bool burst_lost = ge_.lose();
  return congestion_ok && !burst_lost;
}

std::uint64_t BurstyChannel::deliver_count(double per_node_payload_rate,
                                           std::uint64_t messages) {
  std::uint64_t delivered = 0;
  for (std::uint64_t i = 0; i < messages; ++i) {
    delivered += try_deliver(per_node_payload_rate) ? 1 : 0;
  }
  return delivered;
}

// --------------------------------------------------------- FaultConfig

std::uint64_t FaultConfig::hash() const {
  std::uint64_t h = 0xFA01DULL;
  h = mix_double(h, duration_s);
  h = mix_double(h, crash_fraction);
  h = mix_double(h, crash_min_down_s);
  h = mix_double(h, crash_max_down_s);
  h = mix_double(h, degrade_fraction);
  h = mix_double(h, degrade_min_factor);
  h = mix_double(h, degrade_max_factor);
  h = mix_double(h, degrade_min_s);
  h = mix_double(h, degrade_max_s);
  h = combine(h, basestation_outages);
  h = mix_double(h, outage_min_s);
  h = mix_double(h, outage_max_s);
  h = mix_double(h, ge.p_good_to_bad);
  h = mix_double(h, ge.p_bad_to_good);
  h = mix_double(h, ge.loss_good);
  h = mix_double(h, ge.loss_bad);
  return h == 0 ? 1 : h;
}

// ------------------------------------------------------- FaultSchedule

FaultSchedule::FaultSchedule(const FaultConfig& cfg, std::size_t num_nodes,
                             std::uint64_t seed)
    : cfg_(cfg), num_nodes_(num_nodes), seed_(seed) {
  WB_REQUIRE(cfg.duration_s > 0.0, "fault schedule needs a positive duration");
  WB_REQUIRE(cfg.crash_fraction >= 0.0 && cfg.crash_fraction <= 1.0 &&
                 cfg.degrade_fraction >= 0.0 && cfg.degrade_fraction <= 1.0,
             "fault fractions out of range");
  WB_REQUIRE(cfg.crash_max_down_s >= cfg.crash_min_down_s &&
                 cfg.outage_max_s >= cfg.outage_min_s,
             "fault window bounds inverted");

  // Independent child streams per fault family: adding outages to a
  // config never reshuffles which nodes crash.
  Xorshift64 root(seed);
  Xorshift64 crash_rng = root.fork(1);
  Xorshift64 degrade_rng = root.fork(2);
  Xorshift64 outage_rng = root.fork(3);

  const auto num_crashes = static_cast<std::size_t>(
      cfg.crash_fraction * static_cast<double>(num_nodes) + 0.5);
  for (std::size_t node :
       pick_nodes(num_nodes, num_crashes, crash_rng)) {
    CrashWindow w;
    w.node = node;
    const double down =
        crash_rng.next_in(cfg.crash_min_down_s, cfg.crash_max_down_s);
    w.down_s = crash_rng.next_in(0.0, std::max(cfg.duration_s - down, 0.0));
    w.up_s = std::min(w.down_s + down, cfg.duration_s);
    crashes_.push_back(w);
  }

  const auto num_degraded = static_cast<std::size_t>(
      cfg.degrade_fraction * static_cast<double>(num_nodes) + 0.5);
  for (std::size_t node :
       pick_nodes(num_nodes, num_degraded, degrade_rng)) {
    LinkDegradation d;
    d.node = node;
    const double len = degrade_rng.next_in(FaultConfig::degrade_min_s,
                                           FaultConfig::degrade_max_s);
    d.start_s = degrade_rng.next_in(0.0, std::max(cfg.duration_s - len, 0.0));
    d.end_s = std::min(d.start_s + len, cfg.duration_s);
    d.delivery_factor = degrade_rng.next_in(FaultConfig::degrade_min_factor,
                                            FaultConfig::degrade_max_factor);
    degradations_.push_back(d);
  }

  // Outages are placed in disjoint slots: the run is divided into
  // `basestation_outages` equal segments with one outage seeded inside
  // each, so configured outages never merge.
  for (std::size_t i = 0; i < cfg.basestation_outages; ++i) {
    const double seg = cfg.duration_s /
                       static_cast<double>(cfg.basestation_outages);
    const double len = std::min(
        outage_rng.next_in(cfg.outage_min_s, cfg.outage_max_s), seg);
    OutageWindow w;
    w.start_s = static_cast<double>(i) * seg +
                outage_rng.next_in(0.0, seg - len);
    w.end_s = w.start_s + len;
    outages_.push_back(w);
  }
  std::sort(outages_.begin(), outages_.end(),
            [](const OutageWindow& a, const OutageWindow& b) {
              return a.start_s < b.start_s;
            });

  crash_of_node_.assign(num_nodes, kNone);
  for (std::size_t i = 0; i < crashes_.size(); ++i) {
    crash_of_node_[crashes_[i].node] = i;
  }
  degradation_of_node_.assign(num_nodes, kNone);
  for (std::size_t i = 0; i < degradations_.size(); ++i) {
    degradation_of_node_[degradations_[i].node] = i;
  }
}

bool FaultSchedule::node_down(std::size_t node, double t) const {
  WB_ASSERT(node < num_nodes_);
  const std::size_t ix = crash_of_node_[node];
  if (ix == kNone) return false;
  const CrashWindow& w = crashes_[ix];
  return t >= w.down_s && t < w.up_s;
}

double FaultSchedule::node_down_overlap(std::size_t node, double t0,
                                        double t1) const {
  WB_ASSERT(node < num_nodes_);
  const std::size_t ix = crash_of_node_[node];
  if (ix == kNone) return 0.0;
  const CrashWindow& w = crashes_[ix];
  return overlap_s(t0, t1, w.down_s, w.up_s);
}

double FaultSchedule::link_factor(std::size_t node, double t) const {
  WB_ASSERT(node < num_nodes_);
  const std::size_t ix = degradation_of_node_[node];
  if (ix == kNone) return 1.0;
  const LinkDegradation& d = degradations_[ix];
  return (t >= d.start_s && t < d.end_s) ? d.delivery_factor : 1.0;
}

double FaultSchedule::link_factor_overlap(std::size_t node, double t0,
                                          double t1) const {
  WB_ASSERT(node < num_nodes_);
  if (t1 <= t0) return 1.0;
  const std::size_t ix = degradation_of_node_[node];
  if (ix == kNone) return 1.0;
  const LinkDegradation& d = degradations_[ix];
  const double degraded = overlap_s(t0, t1, d.start_s, d.end_s);
  return (degraded * d.delivery_factor + (t1 - t0 - degraded)) / (t1 - t0);
}

bool FaultSchedule::basestation_down(double t) const {
  for (const OutageWindow& w : outages_) {
    if (t >= w.start_s && t < w.end_s) return true;
    if (w.start_s > t) break;
  }
  return false;
}

double FaultSchedule::outage_overlap(double t0, double t1) const {
  double s = 0.0;
  for (const OutageWindow& w : outages_) {
    s += overlap_s(t0, t1, w.start_s, w.end_s);
  }
  return s;
}

GilbertElliott FaultSchedule::make_burst_chain(std::uint64_t stream) const {
  Xorshift64 root(seed_);
  return GilbertElliott(cfg_.ge, root.fork(100 + stream).next());
}

}  // namespace wishbone::net
