// CostMeter: the abstract machine against which operator work functions
// are metered.
//
// The paper profiles operators by executing them on real hardware or a
// cycle-accurate simulator (MSPsim) and timestamping work-function entry,
// exit and emit points (§3). We do not have motes, so work functions
// instead charge an abstract meter with the operations they perform
// (integer ops, floating-point ops, memory traffic, loop iterations).
// A per-platform cost model (wishbone::profile::PlatformModel) then maps
// these counts to microseconds, reproducing the *relative* cost structure
// the paper measures — e.g. software-emulated floating point on the
// MSP430 makes the `cepstrals` operator disproportionately expensive on
// the TMote (Fig. 8).
//
// Loop begin/end events mirror the paper's loop timestamping used to
// subdivide operators into slices for TinyOS task splitting (§3).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace wishbone::graph {

/// Raw operation counts charged by a work function while processing one
/// input element.
struct OpCounts {
  std::uint64_t int_ops = 0;    ///< integer ALU operations
  std::uint64_t float_ops = 0;  ///< floating-point add/mul/sub/div
  std::uint64_t trans_ops = 0;  ///< transcendentals: cos, log, sqrt, exp
  std::uint64_t mem_bytes = 0;  ///< bytes moved to/from buffers
  std::uint64_t branches = 0;   ///< taken branches / loop back-edges
  std::uint64_t emits = 0;      ///< downstream control transfers

  OpCounts& operator+=(const OpCounts& o) {
    int_ops += o.int_ops;
    float_ops += o.float_ops;
    trans_ops += o.trans_ops;
    mem_bytes += o.mem_bytes;
    branches += o.branches;
    emits += o.emits;
    return *this;
  }
  [[nodiscard]] bool is_zero() const {
    return int_ops == 0 && float_ops == 0 && trans_ops == 0 &&
           mem_bytes == 0 && branches == 0 && emits == 0;
  }
};

/// Componentwise a - b; requires a >= b componentwise (used to compute
/// per-event deltas from cumulative meters).
[[nodiscard]] OpCounts counts_delta(const OpCounts& a, const OpCounts& b);

/// Componentwise maximum (used to track peak per-event load, §4).
[[nodiscard]] OpCounts counts_max(const OpCounts& a, const OpCounts& b);

/// One loop site of a work function: iterations plus the costs accrued
/// inside it, summed over every invocation. Enables slicing an
/// operator's execution into roughly equal pieces (paper §3: "time
/// stamp the beginning and end of each for or while loop, and count
/// loop iterations").
struct LoopRecord {
  std::uint64_t iterations = 0;
  OpCounts body;
};

class CostMeter {
 public:
  void charge_int(std::uint64_t n) { totals_.int_ops += n; open_charge([n](OpCounts& c) { c.int_ops += n; }); }
  void charge_float(std::uint64_t n) { totals_.float_ops += n; open_charge([n](OpCounts& c) { c.float_ops += n; }); }
  void charge_trans(std::uint64_t n) { totals_.trans_ops += n; open_charge([n](OpCounts& c) { c.trans_ops += n; }); }
  void charge_mem(std::uint64_t bytes) { totals_.mem_bytes += bytes; open_charge([bytes](OpCounts& c) { c.mem_bytes += bytes; }); }
  void charge_branch(std::uint64_t n) { totals_.branches += n; open_charge([n](OpCounts& c) { c.branches += n; }); }
  void charge_emit() { totals_.emits += 1; open_charge([](OpCounts& c) { c.emits += 1; }); }

  /// Starts one work-function run and counts it. The k-th loop the run
  /// enters is charged to the k-th LoopRecord, so loops() holds one
  /// record per loop site, in first-entry order, summed over runs.
  /// Without it every loop_begin() opens a new record.
  void begin_invocation();

  /// Marks entry into a loop body; pair with loop_end(). Nested loops
  /// are supported; inner-loop costs are attributed to the innermost
  /// open loop and also included in enclosing totals (totals_ is flat).
  void loop_begin();
  void loop_iteration(std::uint64_t n = 1);
  void loop_end();

  [[nodiscard]] const OpCounts& totals() const { return totals_; }
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }
  /// One record per loop site (see begin_invocation()).
  [[nodiscard]] const std::vector<LoopRecord>& loops() const { return loops_; }
  /// Moves the loop records out of a meter that is about to die.
  [[nodiscard]] std::vector<LoopRecord> take_loops() && {
    return std::move(loops_);
  }

  void reset();

 private:
  template <class F>
  void open_charge(F f) {
    if (!open_.empty()) f(loops_[open_.back()].body);
  }

  OpCounts totals_;
  std::uint64_t invocations_ = 0;
  std::vector<LoopRecord> loops_;  ///< one record per loop site
  std::size_t next_loop_ = 0;      ///< site of this run's next loop_begin()
  std::vector<std::size_t> open_;  ///< stack of indices into loops_
};

}  // namespace wishbone::graph
