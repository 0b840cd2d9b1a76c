// DeploymentSim (§7.3): evaluates a concrete partitioning on a simulated
// testbed of TMote-class nodes reporting to a basestation, producing the
// quantities Figs. 9 and 10 plot:
//
//   - percent of input data processed at the sensors (CPU-bound loss),
//   - percent of network messages received (congestion loss),
//   - goodput: their product — "the percentage of sample data that was
//     fully processed to produce output".
//
// Each node is simulated with the cooperative node model (node_sim);
// channel delivery is computed from the aggregate offered load of all
// nodes across the routing tree.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "net/radio.hpp"
#include "net/topology.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"
#include "runtime/node_sim.hpp"

namespace wishbone::runtime {

/// Nodes route over TreeTopology's default fanout and queue
/// NodeSimParams' default number of radio messages.
struct DeploymentConfig {
  double events_per_sec = 1.0;  ///< source event rate per node
  std::size_t num_nodes = 1;
  double duration_s = 60.0;
  net::RadioModel radio;
};

struct DeploymentStats {
  // Per-node derived workload.
  double node_work_us_per_event = 0.0;
  double cut_payload_per_event = 0.0;

  // Simulation results (per node; symmetric across nodes).
  NodeSimStats node;
  double input_fraction = 0.0;     ///< % input events processed
  double msg_delivery_fraction = 0.0;  ///< % sent msgs received
  double goodput_fraction = 0.0;   ///< product (Fig. 9)
  double delivered_payload_bytes_per_sec = 0.0;  ///< whole network
};

/// Evaluates assignment `sides` of profiled graph `g` on the simulated
/// deployment. CPU times come from the profile on platform `plat`; the
/// cut payload is the profiled bytes/event of node->server edges.
[[nodiscard]] DeploymentStats simulate_deployment(
    const graph::Graph& g, const profile::ProfileData& pd,
    const profile::PlatformModel& plat,
    const std::vector<graph::Side>& sides, const DeploymentConfig& cfg);

}  // namespace wishbone::runtime
