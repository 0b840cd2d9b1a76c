// Discrete-event simulation of one sensor node running the node-side
// partition under a TinyOS-like cooperative executive (§5.2):
//
//  - source events arrive periodically (ReadStream double-buffering
//    delivers whole sample arrays);
//  - each accepted event triggers a non-reentrant depth-first graph
//    traversal costing the profiled per-event CPU time; events arriving
//    while the traversal is still running are *missed* ("the runtime
//    buffers data at the source operators until the current graph
//    traversal finishes" — with one outstanding buffer slot);
//  - results are packetized and queued on the radio, which drains at
//    the link transmit rate; a full queue drops messages locally.
//
// Delivery across the (shared, congested) channel is applied after the
// fact from the measured send rate — see DeploymentSim.
#pragma once

#include <cstdint>

#include "net/radio.hpp"

namespace wishbone::runtime {

struct NodeSimParams {
  double event_interval_us = 0.0;   ///< 1 / source rate
  double work_per_event_us = 0.0;   ///< node-partition CPU per event
  double payload_per_event = 0.0;   ///< bytes produced at the cut
  double duration_s = 60.0;
  net::RadioModel radio;
  std::size_t radio_queue_msgs = 32;    ///< outgoing queue capacity
  std::size_t source_buffer_slots = 1;  ///< double buffering = 1 slot
};

struct NodeSimStats {
  std::uint64_t events_arrived = 0;
  std::uint64_t events_accepted = 0;   ///< not missed at the source
  std::uint64_t events_missed = 0;
  std::uint64_t msgs_enqueued = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped_queue = 0;
  double payload_bytes_sent = 0.0;

  /// Fraction of input events fully processed on the node. An empty
  /// run (no events arrived) processed everything it was given, so it
  /// reports 1.0 — the same convention as tx_fraction(), and the one
  /// that keeps goodput = input_fraction * delivery well-behaved for
  /// idle nodes instead of zeroing them out.
  [[nodiscard]] double input_fraction() const {
    return events_arrived == 0
               ? 1.0
               : static_cast<double>(events_accepted) /
                     static_cast<double>(events_arrived);
  }
  /// Fraction of produced messages actually transmitted (queue losses).
  [[nodiscard]] double tx_fraction() const {
    return msgs_enqueued == 0
               ? 1.0
               : static_cast<double>(msgs_sent) /
                     static_cast<double>(msgs_enqueued);
  }
  /// Average payload send rate over the run (bytes/s).
  [[nodiscard]] double payload_rate(double duration_s) const {
    return duration_s <= 0 ? 0.0 : payload_bytes_sent / duration_s;
  }
};

[[nodiscard]] NodeSimStats simulate_node(const NodeSimParams& p);

}  // namespace wishbone::runtime
