#include "partition/rate_search.hpp"

#include "util/assert.hpp"

namespace wishbone::partition {

RateSearchResult max_sustainable_rate(
    const std::function<PartitionProblem(double)>& problem_at,
    const RateSearchOptions& opts) {
  WB_REQUIRE(opts.min_rate > 0 && opts.max_rate > opts.min_rate,
             "rate search: bad bracket");
  RateSearchResult res;

  // One solve at `rate`, warm-started from `warm` unless the caller
  // supplied a basis of its own; `first_cut_only` makes it a
  // feasibility probe.
  auto solve_at = [&](double rate, bool first_cut_only,
                      const ilp::Basis& warm) {
    ++res.partitions_solved;
    PartitionOptions po = opts.partition;
    if (first_cut_only) po.mip.stop_at_first_incumbent = true;
    if (!warm.empty() && !po.mip.warm_basis) po.mip.warm_basis = warm;
    PartitionResult r = solve_partition(problem_at(rate), po);
    res.total_bnb_nodes += r.solver.nodes_explored;
    res.total_lp_iterations += r.solver.lp_iterations;
    if (r.solver.warm_basis_loaded) ++res.probes_with_inherited_basis;
    if (r.solver.warm_basis_rejected) ++res.probes_with_rejected_basis;
    return r;
  };

  // Successive probes usually solve structurally identical ILPs (same
  // graph, rescaled coefficients), so each probe inherits the previous
  // probe's final simplex basis; loading costs one refactorization
  // under the configured basis engine. load_basis checks the inherited
  // basis's shape and structure hash first and cold-starts when this
  // rate's formulation differs — matching dimensions alone are not
  // enough, since preprocessing can merge differently and resource rows
  // can appear or vanish with the rate (probes_with_rejected_basis
  // counts those stale inherits).
  ilp::Basis carried_basis;
  auto probe = [&](double rate, bool first_cut_only) {
    PartitionResult r = solve_at(rate, first_cut_only, carried_basis);
    if (!r.solver.final_basis.empty()) {
      carried_basis = r.solver.final_basis;
    }
    if (!r.feasible && r.solver.status == ilp::SolveStatus::kIterationLimit) {
      ++res.probes_censored;
    }
    return r;
  };

  // Fast path: everything fits at the top of the bracket. This probe
  // optimizes, since its cut is the answer.
  PartitionResult top = probe(opts.max_rate, /*first_cut_only=*/false);
  if (top.feasible) {
    res.any_feasible = true;
    res.max_rate = opts.max_rate;
    res.partition_at_max = std::move(top);
    return res;
  }
  PartitionResult bottom = probe(opts.min_rate, /*first_cut_only=*/true);
  if (!bottom.feasible) {
    return res;  // nothing fits even at the minimum rate
  }

  double lo = opts.min_rate;   // known feasible
  double hi = opts.max_rate;   // known infeasible
  res.any_feasible = true;
  res.max_rate = lo;
  res.partition_at_max = std::move(bottom);

  for (std::size_t i = 0;
       i < opts.max_iterations && (hi - lo) > opts.rel_tol * lo; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (!(mid > lo && mid < hi)) break;  // lo and hi are adjacent doubles
    PartitionResult r = probe(mid, /*first_cut_only=*/true);
    if (r.feasible) {
      lo = mid;
      res.max_rate = mid;
      res.partition_at_max = std::move(r);
    } else {
      hi = mid;
    }
  }

  // The one optimizing solve, at the final rate and from the basis its
  // own probe left (the last probe's is from another rate). The probe's
  // cut stands when it is already proved optimal, and when this solve
  // finds no cut or a worse one.
  PartitionResult& found = res.partition_at_max;
  if (found.solver.status != ilp::SolveStatus::kOptimal) {
    PartitionResult r = solve_at(lo, /*first_cut_only=*/false,
                                 found.solver.final_basis);
    if (r.feasible && r.objective <= found.objective) found = std::move(r);
  }
  return res;
}

}  // namespace wishbone::partition
