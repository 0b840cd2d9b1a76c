// The Wishbone compiler façade: the end-to-end profile-and-partition
// flow of §3, packaged as the library's primary entry point.
//
//   Graph + sample traces + target platform
//     -> profile (per-operator costs, per-edge rates)
//     -> pin analysis (movable subgraph, §2.1.1)
//     -> partition problem at the requested input rate
//     -> preprocessing + ILP + branch & bound (§4)
//     -> assignment, or — when nothing fits — the §4.3 rate search and
//        the maximum sustainable rate, plus actionable feedback
//     -> GraphViz visualization (§3)
//
// Wishbone is also intended as an interactive design aid (§1): the
// CompileReport carries enough information (profiles, budgets, solver
// timelines, infeasibility diagnostics) for a developer to decide
// whether to pick a beefier platform, shed load, or re-structure the
// program.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "graph/pinning.hpp"
#include "partition/partitioner.hpp"
#include "partition/rate_search.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"

namespace wishbone::core {

struct CompileOptions {
  static constexpr graph::Mode mode = graph::Mode::kPermissive;
  partition::PartitionOptions partition;
  /// When the requested rate is infeasible, the compile searches for
  /// the maximum sustainable rate instead of failing outright (§4.3),
  /// to this relative tolerance. The search's first probe is the solve
  /// at the requested rate.
  static constexpr bool search_rate_on_overload = true;
  static constexpr double rate_search_rel_tol = 0.01;
};

struct CompileReport {
  profile::ProfileData profile;
  graph::PinAnalysis pins;

  bool feasible_at_requested_rate = false;
  double requested_rate = 0.0;

  /// Partition at the requested rate if feasible, else at the maximum
  /// sustainable rate (when found).
  partition::PartitionResult partition;  ///< sides indexed by OperatorId
  double partition_rate = 0.0;           ///< rate the cut was solved for

  /// §4.3 outcome when the requested rate did not fit.
  std::optional<double> max_sustainable_rate;

  std::string dot;      ///< GraphViz visualization (heat + shapes)
  std::string message;  ///< human-readable feasibility feedback
};

class Wishbone {
 public:
  /// The graph is held by reference: profiling executes its operators
  /// (state is reset afterwards).
  Wishbone(graph::Graph& g, profile::PlatformModel platform,
           CompileOptions opts = {});

  /// Profiles on `traces` (num_events events) and partitions for a
  /// source event rate of `events_per_sec`.
  [[nodiscard]] CompileReport compile(
      const std::map<graph::OperatorId, std::vector<graph::Frame>>& traces,
      std::size_t num_events, double events_per_sec);

  /// Re-partitions using an existing profile (no re-execution); useful
  /// for rate sweeps and platform comparisons.
  [[nodiscard]] CompileReport partition_only(
      const profile::ProfileData& pd, double events_per_sec) const;

 private:
  /// Partitions on `pd`, which becomes the report's profile.
  CompileReport run(profile::ProfileData pd, double events_per_sec) const;

  graph::Graph& g_;
  profile::PlatformModel platform_;
  CompileOptions opts_;
};

}  // namespace wishbone::core
