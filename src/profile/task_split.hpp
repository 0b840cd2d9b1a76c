// Operator/task splitting support (§3, §5.2).
//
// TinyOS tasks must be neither too short (post/dispatch overhead) nor
// too long (they starve system tasks such as the radio). The paper's
// profiler therefore timestamps every for/while loop and counts its
// iterations: "As most time is spent within loops ... this enables us
// to roughly subdivide execution of an operator into a specified
// number of slices", and the code generator then inserts extra yield
// points at the chosen loop iterations.
//
// This module turns an operator's profiled LoopRecords into a slicing
// plan: how many yield points to insert and after how many loop
// iterations each, so that no slice exceeds a target duration on a
// given platform.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/cost_meter.hpp"
#include "profile/platform.hpp"

namespace wishbone::profile {

/// One insertion point: split loop `loop_index` every
/// `iterations_per_slice` iterations.
struct LoopSplit {
  std::size_t loop_index = 0;
  std::uint64_t iterations_per_slice = 0;
  double slice_us = 0.0;  ///< estimated duration of each resulting slice
};

struct TaskSplitPlan {
  double total_us = 0.0;       ///< whole work-function duration
  double straight_line_us = 0; ///< time outside any profiled loop
  std::vector<LoopSplit> splits;
  /// Longest un-yielding run after applying the plan.
  double max_slice_us = 0.0;
  /// Number of task boundaries (yield points) the plan inserts.
  std::size_t yield_points = 0;
};

/// Computes a slicing plan for an operator whose profiled loop sites
/// are `loops` (one record per site, summed over `invocations`
/// work-function runs, as graph::CostMeter::loops() holds them) such
/// that no slice exceeds `target_us` on platform `plat`. Loops cheaper
/// than the target are left intact.
[[nodiscard]] TaskSplitPlan plan_task_split(
    const std::vector<graph::LoopRecord>& loops,
    const graph::OpCounts& totals, std::uint64_t invocations,
    const PlatformModel& plat, double target_us);

}  // namespace wishbone::profile
