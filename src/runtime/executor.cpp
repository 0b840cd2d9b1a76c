#include "runtime/executor.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wishbone::runtime {

class PartitionedExecutor::Ctx final : public graph::Context {
 public:
  Ctx(PartitionedExecutor& ex, OperatorId op) : ex_(ex), op_(op) {}

  void emit(Frame frame) override {
    if (ex_.meters_ != nullptr) ex_.meters_->op[op_].charge_emit();
    ex_.route(op_, std::move(frame));
  }
  [[nodiscard]] graph::CostMeter* cost_meter() override {
    return ex_.meters_ != nullptr ? &ex_.meters_->op[op_] : nullptr;
  }
  [[nodiscard]] std::vector<float> get_buffer(std::size_t n) override {
    return ex_.pool_.acquire(n);
  }
  [[nodiscard]] std::size_t node_id() const override { return 0; }

 private:
  PartitionedExecutor& ex_;
  OperatorId op_;
};

ExecMeters::ExecMeters(const Graph& g)
    : op(g.num_operators()), elements_out(g.num_operators(), 0),
      bytes_out(g.num_operators(), 0.0), edge_bytes(g.num_edges(), 0.0),
      edge_elements(g.num_edges(), 0) {}

PartitionedExecutor::PartitionedExecutor(Graph& g,
                                         std::vector<Side> assignment,
                                         std::size_t radio_payload)
    : graph_(g), sides_(std::move(assignment)), sources_(g.sources()),
      radio_payload_(radio_payload) {
  WB_REQUIRE(sides_.size() == g.num_operators(),
             "assignment does not match graph");
  WB_REQUIRE(radio_payload_ >= 1, "radio payload must be >= 1 byte");
  for (const graph::Edge& e : g.edges()) {
    WB_REQUIRE(!(sides_[e.from] == Side::kServer &&
                 sides_[e.to] == Side::kNode),
               "assignment has a server->node edge; the prototype "
               "model allows data to cross the network only once "
               "(§2.1.2)");
  }
}

void PartitionedExecutor::set_loss_hook(
    std::function<bool(std::uint64_t)> hook) {
  loss_hook_ = std::move(hook);
}

void PartitionedExecutor::route(OperatorId from, Frame&& f) {
  const std::vector<std::size_t>& out = graph_.out_edges(from);
  if (meters_ != nullptr) {
    const double bytes = static_cast<double>(f.wire_bytes());
    meters_->elements_out[from] += 1;
    meters_->bytes_out[from] += bytes;
    for (std::size_t ei : out) {
      meters_->edge_bytes[ei] += bytes;
      meters_->edge_elements[ei] += 1;
    }
  }
  // True while wire_ holds f's bytes. A cut delivery keeps it valid
  // (server operators have no cut edges below them); a local delivery
  // may route other node frames through wire_, so it clears it.
  bool wired = false;
  for (std::size_t idx = 0; idx < out.size(); ++idx) {
    const graph::Edge& e = graph_.edges()[out[idx]];
    const bool last = idx + 1 == out.size();
    if (sides_[e.from] == Side::kNode && sides_[e.to] == Side::kServer) {
      // Cut edge: marshal (once per frame), send, (maybe) lose,
      // unmarshal into pooled storage.
      if (!wired) {
        marshal_into(f, wire_);
        wired = true;
      }
      stats_.cut_frames += 1;
      stats_.cut_payload_bytes += wire_.size();
      stats_.cut_messages += packet_count(wire_.size(), radio_payload_);
      if (loss_hook_ && !loss_hook_(stats_.cut_frames - 1)) {
        stats_.cut_frames_lost += 1;
        continue;
      }
      std::vector<float> buf = pool_.acquire(f.size());
      const graph::Encoding enc = unmarshal_into(wire_, buf);
      deliver(e.to, e.to_port, Frame(std::move(buf), enc));
    } else if (last) {
      // Local edge, sole remaining consumer: hand the frame over.
      deliver(e.to, e.to_port, std::move(f));
    } else {
      // Fan-out: copy into pooled storage so the copy recycles too.
      std::vector<float> buf = pool_.acquire(f.size());
      std::copy(f.samples().begin(), f.samples().end(), buf.begin());
      deliver(e.to, e.to_port, Frame(std::move(buf), f.encoding()));
      wired = false;
    }
  }
  // Reclaim whatever storage the frame still owns (not moved out, or
  // the last edge was a cut edge).
  pool_.release(std::move(f.samples()));
}

void PartitionedExecutor::deliver(OperatorId op, std::size_t port,
                                  Frame&& f) {
  if (meters_ != nullptr) meters_->op[op].begin_invocation();
  if (graph_.info(op).is_sink) {
    if (sink_out_ != nullptr) (*sink_out_)[op].push_back(f);
    if (graph_.impl(op) != nullptr) {
      Ctx ctx(*this, op);
      graph_.impl(op)->process(port, f, ctx);
    }
    pool_.release(std::move(f.samples()));
    return;
  }
  graph::OperatorImpl* impl = graph_.impl(op);
  WB_REQUIRE(impl != nullptr, "operator '" + graph_.info(op).name +
                                  "' has no implementation");
  Ctx ctx(*this, op);
  impl->process(port, f, ctx);
  pool_.release(std::move(f.samples()));
}

std::map<OperatorId, std::vector<Frame>> PartitionedExecutor::run(
    const std::map<OperatorId, std::vector<Frame>>& traces,
    std::size_t num_events) {
  WB_REQUIRE(num_events > 0, "need at least one event");
  for (OperatorId s : sources_) {
    const auto it = traces.find(s);
    WB_REQUIRE(it != traces.end() && it->second.size() >= num_events,
               "missing or short trace for source '" +
                   graph_.info(s).name + "'");
  }
  std::map<OperatorId, std::vector<Frame>> out;
  sink_out_ = collect_sink_ ? &out : nullptr;
  try {
    for (std::size_t i = 0; i < num_events; ++i) step(traces, i);
  } catch (...) {
    sink_out_ = nullptr;  // a later step() must not reach the dead map
    throw;
  }
  sink_out_ = nullptr;
  return out;
}

void PartitionedExecutor::step(
    const std::map<OperatorId, std::vector<Frame>>& traces, std::size_t i) {
  ++stats_.events;
  for (OperatorId s : sources_) {
    // Copy the (const) trace frame into pooled storage so the whole
    // traversal runs on recycled buffers.
    const Frame& src = traces.at(s)[i];
    std::vector<float> buf = pool_.acquire(src.size());
    std::copy(src.samples().begin(), src.samples().end(), buf.begin());
    route(s, Frame(std::move(buf), src.encoding()));
  }
}

}  // namespace wishbone::runtime
