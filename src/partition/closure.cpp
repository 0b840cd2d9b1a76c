#include "partition/closure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "partition/formulation.hpp"
#include "util/assert.hpp"

namespace wishbone::partition {

namespace {

constexpr double kInfCap = std::numeric_limits<double>::infinity();

/// The closure weight w_v of every vertex (see closure.hpp): build_ilp's
/// restricted objective coefficients.
std::vector<double> closure_weights(const PartitionProblem& p) {
  std::vector<double> w = net_coefficients(p);
  for (std::size_t v = 0; v < w.size(); ++v) {
    w[v] = p.alpha * p.vertices[v].cpu + p.beta * w[v];
  }
  return w;
}

/// Capacity of v's source arc: -w_v when v gains by joining the
/// closure, infinite when it is node-pinned (0 = no arc).
double source_cap(const ProblemVertex& v, double w) {
  return v.req == Requirement::kNode ? kInfCap : std::max(-w, 0.0);
}

/// Capacity of v's sink arc: w_v when v costs to join the closure,
/// infinite when it is server-pinned (0 = no arc).
double sink_cap(const ProblemVertex& v, double w) {
  return v.req == Requirement::kServer ? kInfCap : std::max(w, 0.0);
}

double abs_sum(const std::vector<double>& w) {
  double s = 0.0;
  for (double x : w) s += std::fabs(x);
  return s;
}

/// The closure network in CSR form: vertex x's arcs are
/// arcs[first[x] .. first[x+1]). Arcs come in pairs, forward and
/// reverse, with skew-symmetric flow (arcs[a.rev].flow == -a.flow), so
/// the residual capacity of every arc is cap - flow and no separate
/// residual graph exists.
class Network {
 public:
  struct Arc {
    std::uint32_t to = 0;
    std::uint32_t rev = 0;
    double cap = 0.0;
    double flow = 0.0;
  };

  Network(const PartitionProblem& p, const std::vector<double>& w)
      : n_(static_cast<std::uint32_t>(p.num_vertices())),
        s_(n_),
        t_(n_ + 1),
        first_(n_ + 3, 0),
        cursor_(n_ + 2),
        level_(n_ + 2),
        edge_arc_(p.num_edges()),
        eps_(1e-13 * abs_sum(w)) {
    // Two passes over the same arc list: count each vertex's arcs,
    // then place them.
    auto for_each_pair = [&](auto&& add) {
      for (std::uint32_t v = 0; v < n_; ++v) {
        const double cs = source_cap(p.vertices[v], w[v]);
        const double ct = sink_cap(p.vertices[v], w[v]);
        if (cs > 0.0) add(s_, v, cs);
        if (ct > 0.0) add(v, t_, ct);
      }
      for (const ProblemEdge& e : p.edges) {
        add(static_cast<std::uint32_t>(e.to),
            static_cast<std::uint32_t>(e.from), kInfCap);
      }
    };
    for_each_pair([&](std::uint32_t a, std::uint32_t b, double) {
      ++first_[a + 1];
      ++first_[b + 1];
    });
    for (std::uint32_t x = 0; x < n_ + 2; ++x) first_[x + 1] += first_[x];
    arcs_.resize(first_[n_ + 2]);
    std::copy(first_.begin(), first_.end() - 1, cursor_.begin());
    std::size_t edge = 0;
    for_each_pair([&](std::uint32_t a, std::uint32_t b, double cap) {
      const std::uint32_t ia = cursor_[a]++;
      const std::uint32_t ib = cursor_[b]++;
      arcs_[ia] = {b, ib, cap, 0.0};
      arcs_[ib] = {a, ia, 0.0, 0.0};
      if (a != s_ && b != t_) edge_arc_[edge++] = ia;
    });
  }

  /// Dinic's max-flow. Returns nullopt when the flow is infinite: an
  /// all-infinite s–t path exists, so the pins contradict.
  std::optional<double> max_flow() {
    double total = 0.0;
    while (levels()) {
      std::copy(first_.begin(), first_.end() - 1, cursor_.begin());
      const double d = push(s_, kInfCap);
      if (d == kInfCap) return std::nullopt;
      total += d;
    }
    return total;
  }

  /// Whether v is reachable from s in the residual network; after
  /// max_flow that set is the smallest minimum-weight closure.
  [[nodiscard]] bool on_source_side(std::uint32_t v) const {
    return level_[v] >= 0;
  }

  /// Copies the flow out by problem element (see Closure).
  void export_flow(Closure& c) const {
    c.source_flow.assign(n_, 0.0);
    c.sink_flow.assign(n_, 0.0);
    for (std::uint32_t i = first_[s_]; i < first_[s_ + 1]; ++i) {
      c.source_flow[arcs_[i].to] = arcs_[i].flow;
    }
    for (std::uint32_t i = first_[t_]; i < first_[t_ + 1]; ++i) {
      c.sink_flow[arcs_[i].to] = -arcs_[i].flow;
    }
    c.edge_flow.resize(edge_arc_.size());
    for (std::size_t e = 0; e < edge_arc_.size(); ++e) {
      c.edge_flow[e] = arcs_[edge_arc_[e]].flow;
    }
  }

 private:
  [[nodiscard]] double room(const Arc& a) const { return a.cap - a.flow; }

  /// BFS levels over arcs with residual room; true if t is reachable.
  bool levels() {
    std::fill(level_.begin(), level_.end(), -1);
    // cursor_ doubles as the BFS queue: max_flow resets it afterwards.
    std::uint32_t head = 0, tail = 0;
    level_[s_] = 0;
    cursor_[tail++] = s_;
    while (head < tail) {
      const std::uint32_t x = cursor_[head++];
      for (std::uint32_t i = first_[x]; i < first_[x + 1]; ++i) {
        const Arc& a = arcs_[i];
        if (level_[a.to] < 0 && room(a) > eps_) {
          level_[a.to] = level_[x] + 1;
          cursor_[tail++] = a.to;
        }
      }
    }
    return level_[t_] >= 0;
  }

  /// Pushes up to `limit` from x to t along the level graph; returns
  /// the amount sent. cursor_[x] skips arcs already blocked this phase.
  double push(std::uint32_t x, double limit) {
    if (x == t_) return limit;
    double sent = 0.0;
    for (std::uint32_t& i = cursor_[x]; i < first_[x + 1]; ++i) {
      Arc& a = arcs_[i];
      const double r = room(a);
      if (r <= eps_ || level_[a.to] != level_[x] + 1) continue;
      const double d = push(a.to, std::min(limit - sent, r));
      if (d <= 0.0) continue;
      a.flow += d;
      arcs_[a.rev].flow -= d;
      sent += d;
      if (sent == kInfCap || limit - sent <= eps_) return sent;
    }
    return sent;
  }

  std::uint32_t n_, s_, t_;
  std::vector<std::uint32_t> first_;
  std::vector<std::uint32_t> cursor_;
  std::vector<int> level_;
  std::vector<std::uint32_t> edge_arc_;  ///< forward arc of each edge
  std::vector<Arc> arcs_;
  double eps_;  ///< residual room at or below this counts as saturated
};

}  // namespace

std::optional<Closure> min_weight_closure(const PartitionProblem& p) {
  const std::vector<double> w = closure_weights(p);
  Network net(p, w);
  const std::optional<double> flow = net.max_flow();
  if (!flow) return std::nullopt;

  Closure c;
  c.flow_value = *flow;
  c.sides.resize(p.num_vertices());
  for (std::size_t v = 0; v < c.sides.size(); ++v) {
    const bool in = net.on_source_side(static_cast<std::uint32_t>(v));
    c.sides[v] = in ? Side::kNode : Side::kServer;
    if (in) c.objective += w[v];
  }
  net.export_flow(c);
  check_closure_certificate(p, c);
  return c;
}

void check_closure_certificate(const PartitionProblem& p, const Closure& c) {
  const std::size_t n = p.num_vertices();
  WB_ASSERT_MSG(c.sides.size() == n && c.source_flow.size() == n &&
                    c.sink_flow.size() == n &&
                    c.edge_flow.size() == p.num_edges(),
                "closure certificate has the wrong shape");
  const std::vector<double> w = closure_weights(p);
  const double tol = 1e-9 * std::max(1.0, abs_sum(w));

  // Capacities, and each vertex's net inflow for conservation.
  std::vector<double> excess(n, 0.0);
  double value = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const double in = c.source_flow[v], out = c.sink_flow[v];
    WB_ASSERT_MSG(in >= -tol && in <= source_cap(p.vertices[v], w[v]) + tol,
                  "closure flow breaks a source arc's capacity");
    WB_ASSERT_MSG(out >= -tol && out <= sink_cap(p.vertices[v], w[v]) + tol,
                  "closure flow breaks a sink arc's capacity");
    excess[v] += in - out;
    value += in;
  }
  for (std::size_t e = 0; e < p.num_edges(); ++e) {
    const double f = c.edge_flow[e];  // on the arc to -> from
    WB_ASSERT_MSG(f >= -tol, "closure flow runs against an edge arc");
    excess[p.edges[e].to] -= f;
    excess[p.edges[e].from] += f;
  }
  for (std::size_t v = 0; v < n; ++v) {
    WB_ASSERT_MSG(std::fabs(excess[v]) <= tol,
                  "closure flow is not conserved");
  }
  WB_ASSERT_MSG(std::fabs(value - c.flow_value) <= tol,
                "closure flow value misreported");

  // The sides: closed under predecessors, pins respected.
  double objective = 0.0, negative = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const Requirement req = p.vertices[v].req;
    WB_ASSERT_MSG(!(req == Requirement::kNode && c.sides[v] != Side::kNode) &&
                      !(req == Requirement::kServer &&
                        c.sides[v] != Side::kServer),
                  "closure breaks a pin");
    if (c.sides[v] == Side::kNode) objective += w[v];
    negative += std::min(w[v], 0.0);
  }
  for (const ProblemEdge& e : p.edges) {
    WB_ASSERT_MSG(!(c.sides[e.to] == Side::kNode &&
                    c.sides[e.from] == Side::kServer),
                  "closure is not closed under predecessors");
  }
  WB_ASSERT_MSG(std::fabs(objective - c.objective) <= tol,
                "closure objective misreported");
  // Weak duality: every closure weighs at least negative + any flow's
  // value, so equality proves this one minimal.
  WB_ASSERT_MSG(std::fabs(objective - (negative + value)) <= tol,
                "closure objective differs from the max-flow bound");
}

}  // namespace wishbone::partition
