// TinyOS-style cooperative scheduler simulation (§5.2): a single,
// non-preemptive task queue. Application operators run as tasks; a
// periodic system task (radio/message service) must wait for whatever
// task is running to finish. "Tasks with very short durations incur
// unnecessary overhead, and tasks that run too long degrade system
// performance by starving important system tasks (for example, sending
// network messages)."
//
// The simulator measures exactly that trade-off: given the per-task
// durations of one graph traversal (before or after §3 task
// splitting) and the radio service period, with a fixed 60 us dispatch
// overhead per task post, it
// reports how long the radio task was starved and how much overhead
// the task posts added — the "system health" knobs the code generator
// balances when it inserts yield points.
#pragma once

#include <cstdint>
#include <vector>

namespace wishbone::runtime {

struct SchedulerConfig {
  /// Durations of the application tasks of one event's graph traversal,
  /// in posting order. A split operator contributes several entries.
  std::vector<double> traversal_tasks_us;
  double event_interval_us = 0.0;       ///< source event period
  double radio_period_us = 10'000.0;    ///< radio wants service this often
  double radio_task_us = 500.0;         ///< radio service duration
  double duration_s = 10.0;
};

struct SchedulerStats {
  std::uint64_t traversals_started = 0;
  std::uint64_t traversals_missed = 0;  ///< event arrived mid-traversal
  std::uint64_t radio_services = 0;
  double max_radio_delay_us = 0.0;   ///< worst starvation of the radio
  double mean_radio_delay_us = 0.0;
  double cpu_busy_fraction = 0.0;
  double overhead_fraction = 0.0;    ///< share of busy time in dispatch

  [[nodiscard]] double input_fraction() const {
    const auto total = traversals_started + traversals_missed;
    return total == 0 ? 0.0
                      : static_cast<double>(traversals_started) /
                            static_cast<double>(total);
  }
};

/// Runs the cooperative schedule. Radio requests are served at task
/// boundaries only (non-preemptive), in FIFO order ahead of further
/// application tasks.
[[nodiscard]] SchedulerStats simulate_scheduler(const SchedulerConfig& cfg);

}  // namespace wishbone::runtime
