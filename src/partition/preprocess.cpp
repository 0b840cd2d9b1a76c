#include "partition/preprocess.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "util/assert.hpp"

namespace wishbone::partition {

namespace {

bool pins_compatible(Requirement a, Requirement b) {
  return !((a == Requirement::kNode && b == Requirement::kServer) ||
           (a == Requirement::kServer && b == Requirement::kNode));
}

Requirement merge_req(Requirement a, Requirement b) {
  WB_ASSERT(pins_compatible(a, b));
  if (a == Requirement::kMovable) return b;
  return a;
}

}  // namespace

PartitionProblem preprocess(const PartitionProblem& p,
                            PreprocessStats* stats) {
  p.check();
  // Each round reads `*src` and materializes the condensed problem
  // once; the input itself is only copied if nothing merges at all.
  const PartitionProblem* src = &p;
  PartitionProblem cur;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t rounds = 0;

  for (;;) {
    ++rounds;
    const PartitionProblem& in = *src;
    const std::size_t n = in.vertices.size();
    std::vector<std::size_t> out_deg(n, 0), in_deg(n, 0);
    std::vector<double> in_bw(n, 0.0);
    std::vector<std::size_t> only_out_edge(n, kNone);
    for (std::size_t ei = 0; ei < in.edges.size(); ++ei) {
      const ProblemEdge& e = in.edges[ei];
      ++out_deg[e.from];
      ++in_deg[e.to];
      in_bw[e.to] += e.bandwidth;
      only_out_edge[e.from] = ei;
    }

    // Union-find over vertices for this round's contractions; `req`
    // holds each root's merged placement requirement.
    std::vector<std::size_t> parent(n);
    std::vector<Requirement> req(n);
    for (std::size_t v = 0; v < n; ++v) {
      parent[v] = v;
      req[v] = in.vertices[v].req;
    }
    auto find = [&](std::size_t v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };

    std::size_t merges = 0;
    for (std::size_t u = 0; u < n; ++u) {
      if (out_deg[u] != 1 || in_deg[u] == 0) continue;
      const ProblemEdge& e = in.edges[only_out_edge[u]];
      const std::size_t v = e.to;
      if (e.bandwidth + 1e-12 < in_bw[u]) continue;  // u reduces data
      const Requirement ru = req[find(u)];
      const Requirement rv = req[find(v)];
      // If u is node-pinned, u->v may be a required cut point unless v
      // is node-pinned too.
      if (ru == Requirement::kNode && rv != Requirement::kNode) continue;
      if (!pins_compatible(ru, rv)) continue;
      const std::size_t a = find(u);
      const std::size_t b = find(v);
      if (a == b) continue;
      parent[b] = a;
      req[a] = merge_req(ru, rv);
      ++merges;
    }

    if (merges == 0) break;

    // Clusters are numbered by their first member in vertex order. Size
    // every cluster's name and op list first so each is built in one
    // allocation: the name is the root's followed by "+member" for the
    // other members in vertex order, the ops are each member's op_ids.
    std::vector<std::size_t> root(n), cluster_id(n, kNone);
    std::vector<std::size_t> cluster_root, name_len, num_ops;
    cluster_root.reserve(n);
    name_len.reserve(n);
    num_ops.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      root[v] = find(v);
      if (cluster_id[root[v]] == kNone) {
        cluster_id[root[v]] = cluster_root.size();
        cluster_root.push_back(root[v]);
        name_len.push_back(in.vertices[root[v]].name.size());
        num_ops.push_back(0);
      }
      const std::size_t c = cluster_id[root[v]];
      if (v != root[v]) name_len[c] += 1 + in.vertices[v].name.size();
      num_ops[c] += op_ids(in, v).size();
    }
    const std::size_t clusters = cluster_root.size();

    PartitionProblem next;
    next.cpu_budget = in.cpu_budget;
    next.net_budget = in.net_budget;
    next.ram_budget = in.ram_budget;
    next.rom_budget = in.rom_budget;
    next.alpha = in.alpha;
    next.beta = in.beta;
    next.vertices.resize(clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
      ProblemVertex& cl = next.vertices[c];
      cl.name.reserve(name_len[c]);
      cl.name.append(in.vertices[cluster_root[c]].name);
      cl.req = req[cluster_root[c]];
      cl.ops.reserve(num_ops[c]);
    }
    for (std::size_t v = 0; v < n; ++v) {
      const ProblemVertex& pv = in.vertices[v];
      ProblemVertex& cl = next.vertices[cluster_id[root[v]]];
      cl.cpu += pv.cpu;
      cl.ram_bytes += pv.ram_bytes;
      cl.rom_bytes += pv.rom_bytes;
      const OpIds ids = op_ids(in, v);
      cl.ops.insert(cl.ops.end(), ids.begin(), ids.end());
      if (v != root[v]) cl.name.append("+").append(pv.name);
    }

    // Inter-cluster edges in (from, to) cluster order, parallel edges
    // summed in edge order and intra-cluster ones dropped.
    std::vector<std::array<std::size_t, 3>> cross;  // from, to, edge
    cross.reserve(in.edges.size());
    for (std::size_t ei = 0; ei < in.edges.size(); ++ei) {
      const std::size_t a = cluster_id[root[in.edges[ei].from]];
      const std::size_t b = cluster_id[root[in.edges[ei].to]];
      if (a != b) cross.push_back({a, b, ei});
    }
    std::sort(cross.begin(), cross.end());
    for (std::size_t s = 0; s < cross.size();) {
      const std::size_t a = cross[s][0], b = cross[s][1];
      double bw = 0.0;
      for (; s < cross.size() && cross[s][0] == a && cross[s][1] == b; ++s) {
        bw += in.edges[cross[s][2]].bandwidth;
      }
      next.edges.push_back(ProblemEdge{a, b, bw});
    }
    next.check();
    cur = std::move(next);
    src = &cur;
  }

  if (src == &p) {  // nothing merged: the input, its op_ids spelled out
    cur = p;
    for (std::size_t v = 0; v < cur.vertices.size(); ++v) {
      const OpIds ids = op_ids(p, v);
      cur.vertices[v].ops.assign(ids.begin(), ids.end());
    }
  }
  if (stats != nullptr) {
    stats->vertices_before = p.vertices.size();
    stats->vertices_after = cur.vertices.size();
    stats->edges_before = p.edges.size();
    stats->edges_after = cur.edges.size();
    stats->rounds = rounds;
  }
  return cur;
}

}  // namespace wishbone::partition
