#include "serve/graph_hash.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wishbone::serve {

using util::hash_combine;

namespace {

/// Folds the length and the FNV-1a of `s` into the running hash.
std::uint64_t hash_str(std::uint64_t h, std::string_view s) {
  return hash_combine(hash_combine(h, s.size()), util::fnv1a(s));
}

/// Order-free fold of a multiset of hashes: sort, then chain-combine.
std::uint64_t fold_sorted(std::uint64_t h, std::vector<std::uint64_t>& v) {
  std::sort(v.begin(), v.end());
  h = hash_combine(h, v.size());
  for (std::uint64_t x : v) h = hash_combine(h, x);
  return h;
}

/// Generic bidirectional refinement over a DAG given per-vertex
/// attribute hashes, a topological order, and an edge list with ports.
struct EdgeRef {
  std::size_t from, to, port;
};

std::uint64_t refine_and_fold(const std::vector<std::uint64_t>& attrs,
                              const std::vector<std::size_t>& topo,
                              const std::vector<EdgeRef>& edges) {
  const std::size_t n = attrs.size();
  std::vector<std::vector<std::size_t>> out(n), in(n);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    out[edges[e].from].push_back(e);
    in[edges[e].to].push_back(e);
  }

  std::vector<std::uint64_t> down(n), up(n);
  std::vector<std::uint64_t> scratch;
  // down[]: reverse topological order, so every consumer is final.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const std::size_t v = *it;
    scratch.clear();
    for (std::size_t e : out[v]) {
      scratch.push_back(
          hash_combine(hash_combine(0x6ee1daull, edges[e].port), down[edges[e].to]));
    }
    down[v] = fold_sorted(attrs[v], scratch);
  }
  // up[]: topological order, so every producer is final.
  for (std::size_t v : topo) {
    scratch.clear();
    for (std::size_t e : in[v]) {
      scratch.push_back(
          hash_combine(hash_combine(0x0b57aceull, edges[e].port), up[edges[e].from]));
    }
    up[v] = fold_sorted(attrs[v], scratch);
  }

  std::vector<std::uint64_t> sig(n);
  for (std::size_t v = 0; v < n; ++v) sig[v] = hash_combine(down[v], up[v]);

  std::uint64_t h = hash_combine(hash_combine(0x5e9a7e5e11ull, n), edges.size());
  std::vector<std::uint64_t> vs = sig;
  h = fold_sorted(h, vs);
  std::vector<std::uint64_t> es;
  es.reserve(edges.size());
  for (const EdgeRef& e : edges) {
    es.push_back(
        hash_combine(hash_combine(hash_combine(0xed9eull, sig[e.from]), sig[e.to]), e.port));
  }
  h = fold_sorted(h, es);
  return h == 0 ? 1 : h;
}

}  // namespace

std::uint64_t canonical_graph_hash(const graph::Graph& g) {
  const std::size_t n = g.num_operators();
  std::vector<std::uint64_t> attrs(n);
  for (std::size_t v = 0; v < n; ++v) {
    const graph::OperatorInfo& i = g.info(v);
    std::uint64_t a = hash_str(0xa77200ull, i.name);
    a = hash_combine(a, static_cast<std::uint64_t>(i.ns));
    a = hash_combine(a, (i.is_source ? 1u : 0u) | (i.is_sink ? 2u : 0u) |
                       (i.stateful ? 4u : 0u) | (i.side_effects ? 8u : 0u));
    a = hash_combine(a, i.num_inputs);
    a = hash_combine(a, i.ram_bytes);
    attrs[v] = hash_combine(a, i.rom_bytes);
  }
  std::vector<std::size_t> topo = g.topo_order();
  std::vector<EdgeRef> edges;
  edges.reserve(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    edges.push_back(EdgeRef{e.from, e.to, e.to_port});
  }
  return refine_and_fold(attrs, topo, edges);
}

std::uint64_t canonical_problem_hash(const partition::PartitionProblem& p) {
  const std::size_t n = p.num_vertices();
  std::vector<std::uint64_t> attrs(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t a = hash_str(0x9b0bull, p.vertices[v].name);
    attrs[v] = hash_combine(a, static_cast<std::uint64_t>(p.vertices[v].req));
  }
  std::vector<std::size_t> topo = p.topo_order();
  std::vector<EdgeRef> edges;
  edges.reserve(p.num_edges());
  for (const partition::ProblemEdge& e : p.edges) {
    edges.push_back(EdgeRef{e.from, e.to, 0});
  }
  return refine_and_fold(attrs, topo, edges);
}

std::vector<std::int64_t> quantize_profile(
    const partition::PartitionProblem& p, double rel) {
  WB_REQUIRE(rel > 0.0, "quantize_profile: resolution must be positive");
  const double inv_log = 1.0 / std::log1p(rel);
  // Reserved cells: 0 for exact zero, min()+1 for "unbudgeted".
  constexpr std::int64_t kZero = 0;
  constexpr std::int64_t kUnbounded =
      std::numeric_limits<std::int64_t>::min() + 1;
  auto cell = [&](double x) -> std::int64_t {
    if (x == 0.0) return kZero;
    if (x >= partition::kNoResourceBudget) return kUnbounded;
    // Shift by 1 so tiny positive values stay distinct from the zero
    // cell without producing huge negative magnitudes.
    return static_cast<std::int64_t>(
        std::llround(std::log(x) * inv_log)) ^ 0x40000000ll;
  };

  std::vector<std::int64_t> q;
  q.reserve(3 * p.num_vertices() + p.num_edges() + 6);
  for (const partition::ProblemVertex& v : p.vertices) {
    q.push_back(cell(v.cpu));
    q.push_back(cell(v.ram_bytes));
    q.push_back(cell(v.rom_bytes));
  }
  for (const partition::ProblemEdge& e : p.edges) q.push_back(cell(e.bandwidth));
  q.push_back(cell(p.cpu_budget));
  q.push_back(cell(p.net_budget));
  q.push_back(cell(p.ram_budget));
  q.push_back(cell(p.rom_budget));
  q.push_back(cell(p.alpha));
  q.push_back(cell(p.beta));
  return q;
}

std::uint64_t profile_hash(const std::vector<std::int64_t>& quantized) {
  // Cell i folds into lane i % 4 by one multiply-xorshift step; the four
  // lanes are independent chains, so consecutive cells overlap in the
  // pipeline instead of waiting on each other's finalizer. Each step is
  // a bijection of the lane state for a given cell, and one splitmix of
  // the combined lanes mixes the result. Only bucket placement depends
  // on this value: cache keys compare the cells themselves.
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  auto fold = [](std::uint64_t h, std::int64_t c) {
    h = (h ^ static_cast<std::uint64_t>(c)) * kMul;
    return h ^ (h >> 32);
  };
  std::uint64_t lane[4] = {0x9f0f11eull, 0x2545f4914f6cdd1dull,
                           0x5851f42d4c957f2dull, 0x14057b7ef767814full};
  const std::size_t n = quantized.size();
  for (std::size_t i = 0; i < n; ++i) {
    lane[i % 4] = fold(lane[i % 4], quantized[i]);
  }
  std::uint64_t h = n;
  for (std::uint64_t l : lane) h = fold(h, static_cast<std::int64_t>(l));
  return util::splitmix64(h);
}

}  // namespace wishbone::serve
