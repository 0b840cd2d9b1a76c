// Data rate as a free variable (§4.3): when no partition fits at the
// requested rate, binary-search the largest input rate that still
// admits a feasible partition. Validity rests on the monotonicity
// argument of §4.3: CPU and network load scale (at least weakly)
// monotonically with the input rate, so feasibility is a downward-
// closed property of the rate.
//
// A probe decides only "does any cut fit at this rate?". The probe at
// opts.max_rate is an optimizing solve, because its cut is the answer
// when it fits. The probe at opts.min_rate and every bisection probe
// stop at the first cut that fits (MipOptions::stop_at_first_incumbent);
// the walk up to that cut is an optimizing solve's, so from the same
// basis the verdict is the same. Once the bracket closes, one optimizing
// solve runs at the final rate, warm-started from the basis its probe
// left; it is skipped when that probe already proved its cut optimal
// (closure-answered or an exhausted tree). A search that bisects
// therefore makes one solve more than it has probes.
#pragma once

#include <functional>

#include "partition/partitioner.hpp"

namespace wishbone::partition {

struct RateSearchOptions {
  double min_rate = 1e-3;     ///< lower bracket (events/s)
  double max_rate = 1e6;      ///< upper bracket (events/s)
  double rel_tol = 0.01;      ///< terminate when hi-lo <= rel_tol*lo
  std::size_t max_iterations = 60;
  PartitionOptions partition;
};

struct RateSearchResult {
  bool any_feasible = false;
  /// Highest rate proven feasible. The first probe solves at
  /// opts.max_rate and every later one strictly inside the bracket, so
  /// max_rate == opts.max_rate exactly when that first probe fits.
  double max_rate = 0.0;
  /// The cut at max_rate: the final optimizing solve's, unless it found
  /// none or a worse one (or was skipped), in which case the cut of the
  /// probe that proved max_rate feasible.
  PartitionResult partition_at_max;
  /// Every solve_partition call: the probes plus the final solve when it
  /// runs.
  std::size_t partitions_solved = 0;
  /// Probes that ended censored (node or time budget) without a cut.
  /// They count as infeasible and lower the bracket's top, so a search
  /// with one may stop below the true maximum.
  std::size_t probes_censored = 0;

  // Solver totals across *all* solves, the final one included
  // (partition_at_max only carries its own): how much LP work the whole
  // search cost.
  std::size_t total_bnb_nodes = 0;
  std::size_t total_lp_iterations = 0;
  /// Solves whose inherited basis actually factorized and was used
  /// (shape mismatches and singular inherits fall back cold).
  std::size_t probes_with_inherited_basis = 0;
  /// Solves that *rejected* the inherited basis because the formulation
  /// changed shape or constraint structure between rates (preprocessing
  /// merged differently, a resource row appeared/vanished). Those
  /// solves cold-start — SimplexState::load_basis's structure check at
  /// work.
  std::size_t probes_with_rejected_basis = 0;
};

/// `problem_at(rate)` must build the partition problem for a given
/// source event rate (typically by rescaling profile data).
[[nodiscard]] RateSearchResult max_sustainable_rate(
    const std::function<PartitionProblem(double)>& problem_at,
    const RateSearchOptions& opts = {});

}  // namespace wishbone::partition
