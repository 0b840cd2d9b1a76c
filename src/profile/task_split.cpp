#include "profile/task_split.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace wishbone::profile {

TaskSplitPlan plan_task_split(const std::vector<graph::LoopRecord>& loops,
                              const graph::OpCounts& totals,
                              std::uint64_t invocations,
                              const PlatformModel& plat, double target_us) {
  WB_REQUIRE(invocations > 0, "plan_task_split: no invocations profiled");
  WB_REQUIRE(target_us > 0.0, "plan_task_split: target must be positive");

  const double inv = static_cast<double>(invocations);
  TaskSplitPlan plan;
  plan.total_us = plat.micros(totals) / inv;

  // Straight-line time: everything not attributed to a profiled loop.
  // (Nested loops' bodies are included in their own records only, so
  // summing loop bodies never double counts.)
  graph::OpCounts loop_total;
  for (const graph::LoopRecord& lr : loops) loop_total += lr.body;
  plan.straight_line_us =
      std::max(0.0, (plat.micros(totals) - plat.micros(loop_total)) / inv);

  // The un-splittable floor: straight-line code runs in one piece.
  plan.max_slice_us = plan.straight_line_us;

  for (std::size_t i = 0; i < loops.size(); ++i) {
    const graph::LoopRecord& lr = loops[i];
    const double loop_us = plat.micros(lr.body) / inv;
    const double iters = static_cast<double>(lr.iterations) / inv;
    if (loop_us <= target_us || iters < 2.0) {
      plan.max_slice_us = std::max(plan.max_slice_us, loop_us);
      continue;
    }
    // Slices needed so each piece fits the target; yield every k
    // iterations ("time stamp the beginning and end of each loop, and
    // count loop iterations" — iteration counts are the only split
    // granularity available).
    const double us_per_iter = loop_us / iters;
    auto per_slice = static_cast<std::uint64_t>(
        std::max(1.0, std::floor(target_us / us_per_iter)));
    const double slice_us = static_cast<double>(per_slice) * us_per_iter;
    const auto slices = static_cast<std::size_t>(
        std::ceil(iters / static_cast<double>(per_slice)));
    plan.splits.push_back(LoopSplit{i, per_slice, slice_us});
    plan.yield_points += slices > 0 ? slices - 1 : 0;
    plan.max_slice_us = std::max(plan.max_slice_us, slice_us);
  }
  return plan;
}

}  // namespace wishbone::profile
