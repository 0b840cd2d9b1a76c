#include <gtest/gtest.h>

#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

using namespace wishbone;
using namespace wishbone::runtime;
using wishbone::util::ContractError;

namespace {

SchedulerConfig base() {
  SchedulerConfig cfg;
  cfg.traversal_tasks_us = {1000.0, 2000.0, 1000.0};
  cfg.event_interval_us = 25'000.0;
  cfg.radio_period_us = 10'000.0;
  cfg.radio_task_us = 500.0;
  cfg.duration_s = 5.0;
  return cfg;
}

}  // namespace

TEST(Scheduler, LightLoadServesRadioOnTime) {
  const auto st = simulate_scheduler(base());
  EXPECT_EQ(st.traversals_missed, 0u);
  EXPECT_GT(st.radio_services, 400u);  // ~500 over 5 s
  // Worst-case delay bounded by the longest task + overhead.
  EXPECT_LE(st.max_radio_delay_us, 2060.0 + 1e-6);
}

TEST(Scheduler, LongTaskStarvesRadio) {
  // §5.2: "tasks that run too long degrade system performance by
  // starving important system tasks".
  SchedulerConfig cfg = base();
  cfg.traversal_tasks_us = {300'000.0};  // one monolithic FFT-ish task
  cfg.event_interval_us = 400'000.0;
  const auto st = simulate_scheduler(cfg);
  EXPECT_GT(st.max_radio_delay_us, 200'000.0);
}

TEST(Scheduler, SplittingTheTaskRestoresHealth) {
  SchedulerConfig mono = base();
  mono.traversal_tasks_us = {300'000.0};
  mono.event_interval_us = 400'000.0;
  const auto before = simulate_scheduler(mono);

  SchedulerConfig split = mono;
  split.traversal_tasks_us.assign(60, 5'000.0);  // same work, 60 slices
  const auto after = simulate_scheduler(split);

  EXPECT_LT(after.max_radio_delay_us, before.max_radio_delay_us / 10.0);
  EXPECT_LE(after.max_radio_delay_us, 6'000.0);
  // The price: dispatch overhead grows with the slice count.
  EXPECT_GT(after.overhead_fraction, before.overhead_fraction);
}

TEST(Scheduler, TooManyShortTasksWasteCpu) {
  // The other half of §5.2: "tasks with very short durations incur
  // unnecessary overhead".
  SchedulerConfig cfg = base();
  cfg.traversal_tasks_us.assign(4000, 5.0);  // 20 ms of work, 4000 posts
  cfg.event_interval_us = 1'000'000.0;
  const auto st = simulate_scheduler(cfg);
  EXPECT_GT(st.overhead_fraction, 0.5);
}

TEST(Scheduler, OverloadMissesEvents) {
  SchedulerConfig cfg = base();
  cfg.traversal_tasks_us = {100'000.0};  // 4x the event interval
  const auto st = simulate_scheduler(cfg);
  EXPECT_GT(st.traversals_missed, 0u);
  EXPECT_LT(st.input_fraction(), 0.6);
}

TEST(Scheduler, CpuBusyFractionTracksLoad) {
  SchedulerConfig cfg = base();
  const auto light = simulate_scheduler(cfg);
  cfg.traversal_tasks_us = {8000.0, 8000.0};
  const auto heavy = simulate_scheduler(cfg);
  EXPECT_GT(heavy.cpu_busy_fraction, light.cpu_busy_fraction);
  EXPECT_LE(heavy.cpu_busy_fraction, 1.0 + 1e-9);
}

TEST(Scheduler, ContractChecks) {
  SchedulerConfig cfg = base();
  cfg.event_interval_us = 0.0;
  EXPECT_THROW((void)simulate_scheduler(cfg), ContractError);
  cfg = base();
  cfg.radio_period_us = 0.0;
  EXPECT_THROW((void)simulate_scheduler(cfg), ContractError);
  cfg = base();
  cfg.duration_s = 0.0;
  EXPECT_THROW((void)simulate_scheduler(cfg), ContractError);
}
