// PartitionedExecutor: runs a partitioned program end to end, exactly
// like the generated single-threaded C backend (§5.1): each emit is a
// function call and every source event triggers a depth-first traversal
// of the operator graph. Edges that cross the node/server cut pass
// through marshal -> (simulated radio) -> unmarshal, so examples and
// tests can verify that the output of a partitioned program matches the
// unpartitioned one — the repartitioning-correctness property Wishbone
// relies on.
//
// Streaming is allocation-free in steady state, cut edges included:
// frames move (never copy) along local edges, fan-out copies land in
// pooled buffers, and every frame's storage returns to the pool after
// its consumer runs. A cut frame is marshalled once into the executor's
// reused wire buffer (however many cut edges it crosses), the radio
// charges packet_count() messages for it, and each receiving operator
// gets a pool-acquired buffer unmarshalled from that wire. Every
// release into the pool follows an acquire from it, so the pool stays
// balanced and its idle-buffer count stops changing once warm.
// Operators cooperate by building outputs in ctx.get_buffer() storage.
//
// The same traversal is the profiler (§3). A caller that attaches
// ExecMeters gets each work function's Context::cost_meter() pointed at
// its operator's meter and every delivery and routed frame counted;
// profile::Profiler runs the graph all on the node with meters attached
// and folds them into a ProfileData. Without meters, cost_meter() is
// nullptr and work functions skip all charging.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "graph/frame.hpp"
#include "graph/graph.hpp"
#include "graph/operator.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/marshal.hpp"

namespace wishbone::runtime {

using graph::Frame;
using graph::Graph;
using graph::OperatorId;
using graph::Side;

struct ExecStats {
  std::uint64_t events = 0;
  std::uint64_t cut_frames = 0;       ///< frames crossing the cut
  std::uint64_t cut_frames_lost = 0;  ///< dropped by the loss hook
  std::uint64_t cut_payload_bytes = 0;
  std::uint64_t cut_messages = 0;     ///< after packetization
};

/// Counters the executor keeps while attached (see attach_meters).
struct ExecMeters {
  explicit ExecMeters(const Graph& g);

  // Indexed by OperatorId:
  std::vector<graph::CostMeter> op;         ///< one run per delivery
  std::vector<std::uint64_t> elements_out;  ///< frames routed downstream
  std::vector<double> bytes_out;            ///< wire bytes routed

  // Indexed like Graph::edges():
  std::vector<double> edge_bytes;            ///< wire bytes carried
  std::vector<std::uint64_t> edge_elements;  ///< frames carried
};

class PartitionedExecutor {
 public:
  /// `assignment` maps every operator to a side; the cut must be
  /// unidirectional (no server->node edges). `radio_payload` controls
  /// packetization of cut frames.
  PartitionedExecutor(Graph& g, std::vector<Side> assignment,
                      std::size_t radio_payload = 28);

  /// Optional loss injection: called once per cut frame (with a running
  /// frame index); returning false drops the frame, emulating radio
  /// loss upstream of relocated operators (§2.1.1).
  void set_loss_hook(std::function<bool(std::uint64_t)> hook);

  /// When false, run() discards sink frames instead of collecting them
  /// (pure streaming mode: nothing accumulates, nothing allocates per
  /// event). Default true.
  void set_collect_sink_output(bool collect) { collect_sink_ = collect; }

  /// Metering mode: while `m` is attached, work functions charge
  /// `m->op[v]` through Context::cost_meter() and the executor counts
  /// into `m`'s other vectors. nullptr detaches (the default).
  void attach_meters(ExecMeters* m) { meters_ = m; }

  /// Drives each source with one frame per event; returns the frames
  /// that reached each sink (empty in streaming mode).
  std::map<OperatorId, std::vector<Frame>> run(
      const std::map<OperatorId, std::vector<Frame>>& traces,
      std::size_t num_events);

  /// Drives event `i` alone, discarding sink frames. `traces` must hold
  /// more than `i` frames for every source (run() checks this).
  void step(const std::map<OperatorId, std::vector<Frame>>& traces,
            std::size_t i);

  [[nodiscard]] const ExecStats& stats() const { return stats_; }

  /// Buffers parked in the frame pool between events. Constant across
  /// runs of any length once the pool is warm (the balance contract).
  [[nodiscard]] std::size_t idle_buffers() const {
    return pool_.idle_buffers();
  }

 private:
  class Ctx;

  void deliver(OperatorId op, std::size_t port, Frame&& f);
  void route(OperatorId from, Frame&& f);

  Graph& graph_;
  std::vector<Side> sides_;
  std::vector<OperatorId> sources_;  ///< graph_.sources(), cached
  std::size_t radio_payload_;
  std::function<bool(std::uint64_t)> loss_hook_;
  ExecStats stats_;
  BufferPool pool_;                 ///< recycled frame storage
  std::vector<std::uint8_t> wire_;  ///< reused cut-frame wire buffer
  bool collect_sink_ = true;
  std::map<OperatorId, std::vector<Frame>>* sink_out_ = nullptr;
  ExecMeters* meters_ = nullptr;
};

}  // namespace wishbone::runtime
