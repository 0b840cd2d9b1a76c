#include "runtime/repartitioner.hpp"

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "partition/baselines.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace wishbone::runtime {

namespace {

// Retry backoff outside pump mode: the first retry sleeps
// kBackoffInitialS, each later one kBackoffFactor times longer, every
// sleep scaled by a seeded factor in [1 - kBackoffJitter,
// 1 + kBackoffJitter].
constexpr double kBackoffInitialS = 0.01;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffJitter = 0.5;

const char* plan_source_name(PlanSource s) {
  switch (s) {
    case PlanSource::kFresh:
      return "fresh";
    case PlanSource::kStale:
      return "stale";
    case PlanSource::kBaseline:
      return "baseline";
  }
  return "?";
}

/// Counts one event on `c`, attaching it to the registry under
/// (name, labels) on first use.
void count(std::optional<obs::InstanceCounter>& c, const char* name,
           const obs::Labels& labels = {}) {
  if (!c) c.emplace(name, labels);
  c->inc();
}

std::size_t read(const std::optional<obs::InstanceCounter>& c) {
  return c ? c->value() : 0;
}

}  // namespace

const char* to_string(ReplanFailure f) {
  switch (f) {
    case ReplanFailure::kNone:
      return "none";
    case ReplanFailure::kPumpStalled:
      return "pump_stalled";
    case ReplanFailure::kDeadline:
      return "deadline";
    case ReplanFailure::kShutdown:
      return "shutdown";
    case ReplanFailure::kExpired:
      return "expired";
    case ReplanFailure::kInfeasible:
      return "infeasible";
  }
  return "?";
}

Repartitioner::Repartitioner(serve::PartitionServer& server, FleetSim& fleet,
                             RepartitionerConfig cfg)
    : server_(server),
      fleet_(fleet),
      cfg_(cfg),
      jitter_(cfg.seed ^ 0x4A177E12ULL),
      last_good_(fleet.num_classes()),
      prev_source_(fleet.num_classes(), -1) {
  WB_REQUIRE(cfg_.trigger_divergence > cfg_.clear_divergence &&
                 cfg_.clear_divergence >= 0.0,
             "hysteresis band inverted");
  if (cfg_.pump_server) {
    WB_REQUIRE(server_.options().workers == 0,
               "pump mode drains run_one and needs a workerless server");
  }
}

std::vector<RepartitionDecision> Repartitioner::install_initial_plans() {
  return replan_all();
}

std::vector<RepartitionDecision> Repartitioner::on_epoch(
    const EpochStats& epoch) {
  ++checks_;
  const double divergence =
      std::abs(epoch.goodput - epoch.predicted_goodput) /
      std::max(epoch.predicted_goodput, 1e-9);

  // Hysteresis: only a divergence above the trigger replans; the armed
  // state persists through the band in between and releases below the
  // clear threshold. While armed, repeat rounds are cooldown-limited so
  // a fleet hovering at the boundary does not thrash the solver.
  if (divergence < cfg_.clear_divergence) {
    diverged_ = false;
    return {};
  }
  if (divergence <= cfg_.trigger_divergence) return {};
  if (diverged_ && replanned_once_ &&
      epoch.epoch < last_replan_epoch_ + cfg_.cooldown_epochs) {
    return {};  // still cooling down from the last round
  }
  diverged_ = true;

  count(triggers_, "wishbone_repartitioner_triggers");
  if (recorder_ != nullptr) {
    recorder_->trigger(static_cast<double>(epoch.epoch), "divergence",
                       "divergence=" + std::to_string(divergence));
  }
  last_replan_epoch_ = epoch.epoch;
  replanned_once_ = true;
  return replan_all();
}

void Repartitioner::count_failure(ReplanFailure reason) {
  if (reason == ReplanFailure::kNone) return;
  count(failures_[static_cast<int>(reason) - 1],
        "wishbone_repartitioner_failed_attempts",
        {{"reason", to_string(reason)}});
}

RepartitionerStats Repartitioner::stats() const {
  // rungs_ is in PlanSource order, failures_ in ReplanFailure order.
  RepartitionerStats s{.checks = checks_,
                       .triggers = read(triggers_),
                       .fresh_solves = read(rungs_[0]),
                       .stale_served = read(rungs_[1]),
                       .baseline_served = read(rungs_[2]),
                       .retries = retries_,
                       .failed_pump_stalled = read(failures_[0]),
                       .failed_deadline = read(failures_[1]),
                       .failed_shutdown = read(failures_[2]),
                       .failed_expired = read(failures_[3]),
                       .failed_infeasible = read(failures_[4])};
  for (const auto& f : failures_) s.failed_attempts += read(f);
  return s;
}

std::vector<RepartitionDecision> Repartitioner::replan_all() {
  std::vector<RepartitionDecision> out;
  out.reserve(fleet_.num_classes());
  for (std::size_t c = 0; c < fleet_.num_classes(); ++c) {
    RepartitionDecision d = replan_class(c);
    const int cur = static_cast<int>(d.source);
    count(rungs_[cur], "wishbone_repartitioner_rungs",
          {{"rung", plan_source_name(d.source)}});
    if (prev_source_[c] >= 0 && prev_source_[c] != cur &&
        recorder_ != nullptr) {
      recorder_->trigger(
          static_cast<double>(fleet_.current_epoch()), "rung_transition",
          "class " + std::to_string(c) + ": " +
              plan_source_name(static_cast<PlanSource>(prev_source_[c])) +
              " -> " + plan_source_name(d.source) +
              " (last failure: " + to_string(d.last_failure) + ")");
    }
    prev_source_[c] = cur;
    out.push_back(d);
  }
  return out;
}

RepartitionDecision Repartitioner::replan_class(std::size_t cls) {
  const util::Stopwatch timer;
  RepartitionDecision d;
  d.node_class = cls;

  const double planned_cpu = fleet_.measured_cpu_scale(cls);
  const double planned_quality = fleet_.measured_channel_quality();

  // ---- rung 1: fresh solve against the measured profile.
  double backoff_s = kBackoffInitialS;
  for (std::size_t attempt = 0; attempt < RepartitionerConfig::max_attempts;
       ++attempt) {
    if (attempt > 0) {
      ++retries_;
      if (!cfg_.pump_server) {
        // Exponential backoff with seeded jitter so a thundering herd
        // of control loops desynchronizes instead of re-colliding.
        const double jit =
            1.0 + kBackoffJitter * (2.0 * jitter_.next_uniform() - 1.0);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff_s * jit));
        backoff_s *= kBackoffFactor;
      }
    }
    d.attempts = attempt + 1;

    serve::SolveRequest req;
    req.problem = fleet_.measured_problem(cls);
    req.platform_id = "fleet_class_" + std::to_string(cls);
    req.deadline_s = cfg_.pump_server ? 0.0 : cfg_.deadline_s;
    std::future<serve::SolveResponse> fut = server_.submit(std::move(req));

    if (cfg_.pump_server) {
      // Determinism mode: drain the workerless server on this thread.
      while (fut.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready &&
             server_.run_one()) {
      }
      if (fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        d.last_failure = ReplanFailure::kPumpStalled;
        count_failure(d.last_failure);
        continue;
      }
    } else if (fut.wait_for(std::chrono::duration<double>(cfg_.deadline_s)) !=
               std::future_status::ready) {
      // The answer may still land later and warm the cache — but this
      // control round will not block on it.
      d.last_failure = ReplanFailure::kDeadline;
      count_failure(d.last_failure);
      continue;
    }

    serve::SolveResponse resp = fut.get();
    if (resp.source == serve::ResponseSource::kShutdown ||
        resp.source == serve::ResponseSource::kExpired ||
        !resp.result->feasible) {
      d.last_failure =
          resp.source == serve::ResponseSource::kShutdown
              ? ReplanFailure::kShutdown
              : (resp.source == serve::ResponseSource::kExpired
                     ? ReplanFailure::kExpired
                     : ReplanFailure::kInfeasible);
      count_failure(d.last_failure);
      continue;
    }

    fleet_.set_assignment(cls, resp.result->sides, planned_cpu,
                          planned_quality);
    last_good_[cls].sides = resp.result->sides;
    last_good_[cls].epoch = fleet_.current_epoch();
    last_good_[cls].valid = true;
    d.source = PlanSource::kFresh;
    d.cache_hit = resp.source == serve::ResponseSource::kCacheHit;
    d.last_failure = ReplanFailure::kNone;  // earlier retries don't count
    d.latency_s = timer.elapsed_seconds();
    return d;
  }

  // ---- rung 2: the previous successful plan, re-anchored to the
  // current measured profile so divergence is judged against what we
  // now expect of it.
  if (last_good_[cls].valid &&
      fleet_.current_epoch() - last_good_[cls].epoch <=
          cfg_.stale_max_epochs) {
    fleet_.set_assignment(cls, last_good_[cls].sides, planned_cpu,
                          planned_quality);
    d.source = PlanSource::kStale;
    d.latency_s = timer.elapsed_seconds();
    return d;
  }

  // ---- rung 3: all-at-basestation. Solver-free, always available.
  partition::BaselineResult base =
      partition::server_baseline(fleet_.base_problem());
  fleet_.set_assignment(cls, std::move(base.sides), planned_cpu,
                        planned_quality);
  d.source = PlanSource::kBaseline;
  d.latency_s = timer.elapsed_seconds();
  return d;
}

}  // namespace wishbone::runtime
