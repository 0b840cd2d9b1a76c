#include "graph/cost_meter.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wishbone::graph {

void CostMeter::begin_invocation() {
  WB_REQUIRE(open_.empty(), "begin_invocation inside a loop scope");
  invocations_ += 1;
  next_loop_ = 0;
}

void CostMeter::loop_begin() {
  if (next_loop_ == loops_.size()) loops_.emplace_back();
  open_.push_back(next_loop_++);
}

void CostMeter::loop_iteration(std::uint64_t n) {
  WB_REQUIRE(!open_.empty(), "loop_iteration outside a loop scope");
  loops_[open_.back()].iterations += n;
}

void CostMeter::loop_end() {
  WB_REQUIRE(!open_.empty(), "loop_end without matching loop_begin");
  open_.pop_back();
}

OpCounts counts_delta(const OpCounts& a, const OpCounts& b) {
  WB_ASSERT(a.int_ops >= b.int_ops && a.float_ops >= b.float_ops &&
            a.trans_ops >= b.trans_ops && a.mem_bytes >= b.mem_bytes &&
            a.branches >= b.branches && a.emits >= b.emits);
  OpCounts d;
  d.int_ops = a.int_ops - b.int_ops;
  d.float_ops = a.float_ops - b.float_ops;
  d.trans_ops = a.trans_ops - b.trans_ops;
  d.mem_bytes = a.mem_bytes - b.mem_bytes;
  d.branches = a.branches - b.branches;
  d.emits = a.emits - b.emits;
  return d;
}

OpCounts counts_max(const OpCounts& a, const OpCounts& b) {
  OpCounts m;
  m.int_ops = std::max(a.int_ops, b.int_ops);
  m.float_ops = std::max(a.float_ops, b.float_ops);
  m.trans_ops = std::max(a.trans_ops, b.trans_ops);
  m.mem_bytes = std::max(a.mem_bytes, b.mem_bytes);
  m.branches = std::max(a.branches, b.branches);
  m.emits = std::max(a.emits, b.emits);
  return m;
}

void CostMeter::reset() {
  totals_ = OpCounts{};
  invocations_ = 0;
  loops_.clear();
  next_loop_ = 0;
  open_.clear();
}

}  // namespace wishbone::graph
