// Stream operators: the vertices of a Wishbone dataflow graph.
//
// Each operator corresponds to a WaveScript `iterate`: a work function
// plus optional private state (§2). The work function consumes one input
// element, may update state, and emits zero or more elements downstream.
//
// Placement metadata mirrors §2.1:
//  - every operator belongs to a *logical* namespace (Node{} or server);
//  - operators with side effects (sensor sampling, LED, file output) are
//    pinned to their namespace's physical partition;
//  - stateless side-effect-free operators are always movable;
//  - stateful Node-namespace operators are movable to the server only in
//    permissive mode (their state is then replicated per node id);
//  - stateful server-namespace operators are never movable into the
//    network (serial semantics, single state instance).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "graph/cost_meter.hpp"
#include "graph/frame.hpp"

namespace wishbone::graph {

using OperatorId = std::size_t;
inline constexpr OperatorId kInvalidOperator = static_cast<OperatorId>(-1);

/// Logical namespace an operator was declared in (§2.1, Fig. 2).
enum class Namespace { kNode, kServer };

/// Physical side of the cut an operator is assigned to.
enum class Side { kNode, kServer };

/// Execution context handed to a work function. The runtime's executor
/// (runtime::PartitionedExecutor) implements it, both when streaming and
/// when profiling; `emit` transfers control downstream and `cost_meter`
/// records abstract costs.
class Context {
 public:
  virtual ~Context() = default;

  /// Produce one element on the operator's output stream.
  virtual void emit(Frame frame) = 0;

  /// The running operator's cost meter while profiling (meters
  /// attached to the executor); nullptr while streaming, so work
  /// functions skip all charging (and the meter's loop records cannot
  /// grow without bound).
  [[nodiscard]] virtual CostMeter* cost_meter() = 0;

  /// Acquires a float buffer of size `n` for building an output frame
  /// (contents unspecified), recycling capacity from completed frames so
  /// steady-state emission is allocation-free. Hand the buffer back by
  /// emitting it inside a Frame.
  [[nodiscard]] virtual std::vector<float> get_buffer(std::size_t n) = 0;

  /// Identity of the physical node this instance runs on (0 on the
  /// server or in single-node profiling). Stateful operators relocated
  /// to the server are emulated in a table indexed by node id (§2.1.1);
  /// the runtime uses this id to select the state instance.
  [[nodiscard]] virtual std::size_t node_id() const = 0;
};

/// Behaviour + private state of one operator. Implementations must be
/// deterministic given the input sequence (profiling assumes sample data
/// is representative, §1).
class OperatorImpl {
 public:
  virtual ~OperatorImpl() = default;

  /// Process one input element arriving on `port` (0 for unary ops).
  virtual void process(std::size_t port, const Frame& in, Context& ctx) = 0;

  /// Deep-copy, duplicating private state. Used to instantiate the Node
  /// partition once per physical node (§2.1) and to emulate per-node
  /// state in a server-side table (§2.1.1).
  [[nodiscard]] virtual std::unique_ptr<OperatorImpl> clone() const = 0;

  /// Restore freshly-constructed state (used between profiling runs).
  virtual void reset() {}
};

/// Static metadata describing one operator vertex.
struct OperatorInfo {
  std::string name;
  Namespace ns = Namespace::kNode;
  bool is_source = false;     ///< samples hardware; no inbound edges
  bool is_sink = false;       ///< terminal consumer; no outbound edges
  bool stateful = false;      ///< keeps mutable state across elements
  bool side_effects = false;  ///< foreign calls: sensors, LEDs, files
  std::size_t num_inputs = 1; ///< input ports (0 for sources)

  /// Static memory footprint on an embedded node (motes use only
  /// statically allocated storage, §5.2). Zero means "estimate from
  /// the profile": buffers sized by the operator's typical frames.
  std::size_t ram_bytes = 0;
  std::size_t rom_bytes = 0;
};

/// Adapter turning a stateless callable into an OperatorImpl.
/// The callable signature is void(const Frame&, Context&).
template <class Fn>
class StatelessOp final : public OperatorImpl {
 public:
  explicit StatelessOp(Fn fn) : fn_(std::move(fn)) {}

  void process(std::size_t /*port*/, const Frame& in, Context& ctx) override {
    fn_(in, ctx);
  }
  [[nodiscard]] std::unique_ptr<OperatorImpl> clone() const override {
    return std::make_unique<StatelessOp<Fn>>(fn_);
  }

 private:
  Fn fn_;
};

template <class Fn>
std::unique_ptr<OperatorImpl> make_stateless(Fn fn) {
  return std::make_unique<StatelessOp<Fn>>(std::move(fn));
}

}  // namespace wishbone::graph
