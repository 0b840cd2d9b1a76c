// The profiler (§3): executes a dataflow graph against sample input
// traces, recording per-operator abstract costs and per-edge data
// volumes. Combined with a PlatformModel this yields the per-platform
// microseconds-per-event and bytes-per-event figures that drive the
// partitioner — the moral equivalent of the paper's timestamped runs on
// real motes / MSPsim plus the compiler's direct Scheme evaluation for
// data rates.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/frame.hpp"
#include "graph/graph.hpp"
#include "profile/platform.hpp"

namespace wishbone::profile {

using graph::Frame;
using graph::Graph;
using graph::OperatorId;

/// Raw profiling results for one run over a sample trace.
struct ProfileData {
  std::size_t num_events = 0;  ///< source events driven through the graph

  // Indexed by OperatorId:
  std::vector<graph::OpCounts> op_counts;        ///< total abstract costs
  std::vector<std::uint64_t> op_invocations;     ///< work-function runs
  std::vector<std::uint64_t> op_elements_out;    ///< elements emitted
  std::vector<double> op_bytes_out;              ///< payload bytes emitted
  /// §3 loop profile: one record per loop site, summed over the
  /// operator's op_invocations runs (graph::CostMeter::loops()).
  std::vector<std::vector<graph::LoopRecord>> op_loops;
  /// Peak single-event cost, componentwise over the count categories
  /// (§4: "For each of these costs we can use either mean or peak load
  /// (profiling computes both)"). The componentwise max makes the
  /// derived peak time a safe upper bound on any platform.
  std::vector<graph::OpCounts> op_peak_counts;

  // Indexed like Graph::edges():
  std::vector<double> edge_bytes;            ///< payload bytes crossing edge
  std::vector<std::uint64_t> edge_elements;  ///< elements crossing edge
  std::vector<double> edge_peak_bytes;       ///< max bytes in one event

  /// Mean CPU microseconds consumed by operator `v` per source event on
  /// platform `p`.
  [[nodiscard]] double micros_per_event(const PlatformModel& p,
                                        OperatorId v) const;

  /// Mean payload bytes crossing edge `ei` per source event.
  [[nodiscard]] double bytes_per_event(std::size_t ei) const;

  /// Fraction of platform `p`'s CPU used by operator `v` when source
  /// events arrive at `events_per_sec`.
  [[nodiscard]] double cpu_fraction(const PlatformModel& p, OperatorId v,
                                    double events_per_sec) const;

  /// Bandwidth (payload bytes/s) on edge `ei` at the given event rate.
  [[nodiscard]] double bandwidth(std::size_t ei, double events_per_sec) const;

  /// Peak-load counterparts (bursty applications, §4).
  [[nodiscard]] double peak_micros_per_event(const PlatformModel& p,
                                             OperatorId v) const;
  [[nodiscard]] double peak_cpu_fraction(const PlatformModel& p,
                                         OperatorId v,
                                         double events_per_sec) const;
  [[nodiscard]] double peak_bandwidth(std::size_t ei,
                                      double events_per_sec) const;

  /// Per-operator heat in [0,1] for DOT visualization: micros on `p`
  /// normalized by the hottest operator.
  [[nodiscard]] std::vector<double> heat(const PlatformModel& p) const;
};

/// Profiles `g` by running it all on the node in the streaming
/// runtime's executor (runtime::PartitionedExecutor) with cost meters
/// attached: each work function charges its operator's meter through
/// Context::cost_meter(), and the executor counts deliveries and routed
/// bytes per operator and per edge. Events are stepped one at a time so
/// per-event peaks can be taken. The graph's operator state is mutated
/// (and should be reset_state()-ed before reuse).
class Profiler {
 public:
  explicit Profiler(Graph& g);

  /// Drives each source with one frame per event from `traces` (which
  /// must cover every source and hold >= num_events frames each).
  /// Source operators are charged a nominal per-byte acquisition cost.
  ProfileData run(const std::map<OperatorId, std::vector<Frame>>& traces,
                  std::size_t num_events);

 private:
  Graph& graph_;
};

}  // namespace wishbone::profile
