#include "runtime/deployment.hpp"

#include "util/assert.hpp"

namespace wishbone::runtime {

DeploymentStats simulate_deployment(const graph::Graph& g,
                                    const profile::ProfileData& pd,
                                    const profile::PlatformModel& plat,
                                    const std::vector<graph::Side>& sides,
                                    const DeploymentConfig& cfg) {
  WB_REQUIRE(sides.size() == g.num_operators(),
             "assignment does not match graph");
  WB_REQUIRE(cfg.events_per_sec > 0, "event rate must be positive");
  WB_REQUIRE(cfg.num_nodes >= 1, "need at least one node");

  DeploymentStats st;
  for (graph::OperatorId v = 0; v < g.num_operators(); ++v) {
    if (sides[v] == graph::Side::kNode) {
      st.node_work_us_per_event += pd.micros_per_event(plat, v);
    }
  }
  for (std::size_t ei = 0; ei < g.num_edges(); ++ei) {
    const graph::Edge& e = g.edges()[ei];
    if (sides[e.from] == graph::Side::kNode &&
        sides[e.to] == graph::Side::kServer) {
      st.cut_payload_per_event += pd.bytes_per_event(ei);
    }
  }

  NodeSimParams np;
  np.event_interval_us = 1e6 / cfg.events_per_sec;
  np.work_per_event_us = st.node_work_us_per_event;
  np.payload_per_event = st.cut_payload_per_event;
  np.duration_s = cfg.duration_s;
  np.radio = cfg.radio;
  st.node = simulate_node(np);

  st.input_fraction = st.node.input_fraction();

  // Channel delivery from the aggregate measured send rate of all
  // nodes through the routing tree.
  const net::TreeTopology topo(cfg.num_nodes);
  const double per_node_rate = st.node.payload_rate(cfg.duration_s);
  const double channel_delivery = topo.delivery_fraction(cfg.radio, per_node_rate);
  // Local queue drops also count against "messages received".
  st.msg_delivery_fraction = st.node.tx_fraction() * channel_delivery;

  st.goodput_fraction = st.input_fraction * st.msg_delivery_fraction;
  st.delivered_payload_bytes_per_sec = per_node_rate * channel_delivery *
                                       static_cast<double>(cfg.num_nodes);
  return st;
}

}  // namespace wishbone::runtime
