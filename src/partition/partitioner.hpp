// The Wishbone partitioner (§3–4): preprocess, formulate as an ILP,
// solve with branch and bound, and decode the optimal node/server cut.
//
// The restricted formulation takes a fast path first: without its
// budget rows it is a min-weight closure, one s–t min cut
// (partition/closure.hpp). When that cut fits every budget it is the
// ILP's optimum, and solve_partition returns it without building the
// ILP: `solver` then reads as a solve proved at the root with 0 nodes,
// 0 LP iterations and no final basis. Otherwise branch and bound runs
// as before. The process-wide counter
// wishbone_partition_solves_total{path="closure"|"bnb"} counts each
// solve by the path that answered it.
#pragma once

#include <optional>

#include "graph/pinning.hpp"
#include "ilp/branch_and_bound.hpp"
#include "partition/formulation.hpp"
#include "partition/preprocess.hpp"
#include "partition/problem.hpp"

namespace wishbone::partition {

struct PartitionOptions {
  bool preprocess = true;                   ///< §4.1 merge pass
  Formulation formulation = Formulation::kRestricted;
  bool warm_start = true;                   ///< LP-threshold rounding
  /// Solver configuration, forwarded to branch and bound unchanged
  /// apart from the threshold-rounding hook the partitioner installs;
  /// `mip.warm_basis` threads a basis in from a previous structurally
  /// identical solve.
  ilp::MipOptions mip;
};

struct PartitionResult {
  bool feasible = false;
  /// Per-problem-vertex assignment (pre-expansion); empty if infeasible.
  std::vector<Side> sides;
  double objective = 0.0;
  double cpu_used = 0.0;
  double net_used = 0.0;           ///< cut payload bandwidth, bytes/s
  double ram_used = 0.0;           ///< node static memory, bytes
  double rom_used = 0.0;           ///< node code storage, bytes
  std::size_t node_partition_size = 0;  ///< vertices assigned to the node

  PreprocessStats prep;
  ilp::MipResult solver;           ///< includes Fig. 6 timing data
};

/// Partitions `p`. The returned sides index the vertices of `p` itself
/// (not the condensed problem; condensation is internal).
[[nodiscard]] PartitionResult solve_partition(
    const PartitionProblem& p, const PartitionOptions& opts = {});

/// End-to-end convenience: pin analysis + problem construction +
/// partitioning for a profiled graph at a given input rate, returning
/// per-operator sides through `result.sides` (already expanded).
[[nodiscard]] PartitionResult partition_graph(
    const graph::Graph& g, const profile::ProfileData& pd,
    const profile::PlatformModel& plat, double events_per_sec,
    graph::Mode mode = graph::Mode::kPermissive,
    const PartitionOptions& opts = {});

}  // namespace wishbone::partition
