#include "runtime/scheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wishbone::runtime {

namespace {
constexpr double kTaskPostOverheadUs = 60.0;  ///< scheduler dispatch per task
}

SchedulerStats simulate_scheduler(const SchedulerConfig& cfg) {
  WB_REQUIRE(cfg.event_interval_us > 0, "event interval must be positive");
  WB_REQUIRE(cfg.radio_period_us > 0, "radio period must be positive");
  WB_REQUIRE(cfg.duration_s > 0, "duration must be positive");

  SchedulerStats st;
  const double end_us = cfg.duration_s * 1e6;

  double now = 0.0;              ///< simulation clock
  double next_event = 0.0;       ///< next source event arrival
  double next_radio = 0.0;       ///< next radio service request
  double radio_delay_sum = 0.0;
  double busy_us = 0.0;
  double overhead_us = 0.0;

  std::size_t task_idx = 0;      ///< position within current traversal
  bool traversal_active = false;

  auto serve_radio_if_due = [&] {
    // At a task boundary: serve every radio request that is pending.
    while (next_radio <= now && now < end_us) {
      const double delay = now - next_radio;
      st.max_radio_delay_us = std::max(st.max_radio_delay_us, delay);
      radio_delay_sum += delay;
      ++st.radio_services;
      now += cfg.radio_task_us;
      busy_us += cfg.radio_task_us;
      next_radio += cfg.radio_period_us;
    }
  };

  while (now < end_us) {
    serve_radio_if_due();
    if (now >= end_us) break;

    if (!traversal_active) {
      // Idle: wait for the next event (serving the radio on time).
      if (next_event > now) {
        const double wake = std::min(next_event, next_radio);
        now = std::max(now, wake);
        if (now < next_event) {
          serve_radio_if_due();
          continue;
        }
      }
      if (next_event <= now) {
        traversal_active = true;
        task_idx = 0;
        ++st.traversals_started;
        next_event += cfg.event_interval_us;
      }
      continue;
    }

    // Run the next application task of the active traversal.
    if (task_idx < cfg.traversal_tasks_us.size()) {
      const double dur = cfg.traversal_tasks_us[task_idx];
      now += dur + kTaskPostOverheadUs;
      busy_us += dur + kTaskPostOverheadUs;
      overhead_us += kTaskPostOverheadUs;
      ++task_idx;
      // Events arriving mid-traversal (beyond the one buffered slot)
      // are missed.
      while (next_event + cfg.event_interval_us <= now) {
        ++st.traversals_missed;
        next_event += cfg.event_interval_us;
      }
    } else {
      traversal_active = false;
    }
  }

  st.mean_radio_delay_us =
      st.radio_services == 0 ? 0.0
                             : radio_delay_sum /
                                   static_cast<double>(st.radio_services);
  st.cpu_busy_fraction = busy_us / end_us;
  st.overhead_fraction = busy_us == 0.0 ? 0.0 : overhead_us / busy_us;
  return st;
}

}  // namespace wishbone::runtime
