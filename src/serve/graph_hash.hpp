// Canonical hashing of dataflow graphs and partition problems: the
// cache key of the partitioning service (serve/solve_cache.hpp).
//
// Two clients that assemble the same application must land on the same
// cache entry even when their construction code adds operators in a
// different order, so the hash must depend only on the graph's
// *structure and labels*, never on operator insertion order or pointer
// identity. The scheme is bidirectional DAG refinement:
//
//   down[v] = H(attrs(v), sorted multiset of H(port, down[child]))
//   up[v]   = H(attrs(v), sorted multiset of H(port, up[parent]))
//   sig[v]  = H(down[v], up[v])
//   hash(G) = H(|V|, |E|, sorted multiset of sig[v],
//               sorted multiset of H(sig[from], sig[to], port))
//
// down[] is computed in reverse topological order, up[] in topological
// order, so each is exact (not an iterated approximation): a vertex's
// signature encodes its entire ancestor and descendant cone. Sorting
// the per-vertex neighbor lists and the final multisets removes every
// dependence on vertex numbering and edge enumeration order.
//
// The *profile* (CPU fractions, bandwidths, budgets) deliberately stays
// out of the structural hash — it drifts continuously in a deployed
// fleet and is quantized separately (quantize_profile) so that nearby
// profiles share a cache cell while the graph hash pins the app.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/problem.hpp"

namespace wishbone::serve {

/// Canonical structural hash of an operator graph. Depends on each
/// operator's placement-relevant metadata (name, namespace, source/
/// sink/stateful/side-effect flags, input arity, declared ram/rom) and
/// the wiring (edges with ports) — not on insertion order, operator
/// ids, or OperatorImpl identity.
[[nodiscard]] std::uint64_t canonical_graph_hash(const graph::Graph& g);

/// Canonical structural hash of a partition problem: vertex names,
/// requirements and the edge wiring. Weights (cpu/ram/rom/bandwidth)
/// and budgets are excluded — they belong to the quantized profile
/// vector. Invariant under vertex renumbering and edge reordering.
[[nodiscard]] std::uint64_t canonical_problem_hash(
    const partition::PartitionProblem& p);

/// Quantizes a problem's continuous load profile onto a relative
/// log-grid: each vertex's cpu/ram/rom, each edge's bandwidth, and the
/// budgets/objective weights map to round(log(x) / log(1 + rel)), so
/// two profiles within ~`rel` of each other (the measurement noise of
/// a drifting fleet) usually share a cell and hit the same cache
/// entry. Zero and sentinel ("unbudgeted") values map to distinct
/// reserved cells. Entries follow the problem's vertex/edge order —
/// combine with canonical_problem_hash, which pins the structure.
[[nodiscard]] std::vector<std::int64_t> quantize_profile(
    const partition::PartitionProblem& p, double rel = 0.05);

/// 64-bit mix of a quantized profile vector (for key hashing): four
/// interleaved multiply-xorshift lanes and one splitmix finalizer.
[[nodiscard]] std::uint64_t profile_hash(
    const std::vector<std::int64_t>& quantized);

}  // namespace wishbone::serve
