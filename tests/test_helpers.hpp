// Shared fixtures/generators for the Wishbone test suite.
#pragma once

#include <random>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "partition/closure.hpp"
#include "partition/preprocess.hpp"
#include "partition/problem.hpp"

namespace wbtest {

using namespace wishbone;

/// Random layered DAG partition problem: `layers` layers of up to
/// `width` movable vertices between a pinned source row and one pinned
/// sink, with random CPU costs and (mostly) decreasing bandwidths.
inline partition::PartitionProblem random_problem(std::uint32_t seed,
                                                  std::size_t layers = 3,
                                                  std::size_t width = 3) {
  using partition::PartitionProblem;
  using partition::ProblemEdge;
  using partition::ProblemVertex;
  using graph::Requirement;

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> cpu(0.05, 0.5);
  std::uniform_real_distribution<double> bw(1.0, 100.0);
  std::uniform_int_distribution<std::size_t> w(1, width);

  PartitionProblem p;
  auto add = [&](Requirement req, double c) {
    ProblemVertex v;
    v.name = "v" + std::to_string(p.vertices.size());
    v.req = req;
    v.cpu = c;
    p.vertices.push_back(std::move(v));
    return p.vertices.size() - 1;
  };

  std::vector<std::size_t> prev;
  const std::size_t nsrc = w(rng);
  for (std::size_t i = 0; i < nsrc; ++i) {
    prev.push_back(add(Requirement::kNode, 0.0));
  }
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t n = w(rng);
    std::vector<std::size_t> cur;
    for (std::size_t i = 0; i < n; ++i) {
      cur.push_back(add(Requirement::kMovable, cpu(rng)));
    }
    // Wire each current vertex to >=1 previous vertex, and make sure
    // every previous vertex has >=1 consumer.
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const std::size_t from = prev[rng() % prev.size()];
      p.edges.push_back(ProblemEdge{from, cur[i], bw(rng)});
    }
    for (std::size_t u : prev) {
      bool used = false;
      for (const ProblemEdge& e : p.edges) {
        if (e.from == u) {
          used = true;
          break;
        }
      }
      if (!used) {
        p.edges.push_back(ProblemEdge{u, cur[rng() % cur.size()], bw(rng)});
      }
    }
    prev = std::move(cur);
  }
  const std::size_t sink = add(Requirement::kServer, 0.0);
  for (std::size_t u : prev) {
    p.edges.push_back(ProblemEdge{u, sink, bw(rng)});
  }
  p.cpu_budget = 0.8;
  p.net_budget = 1e9;
  p.alpha = 0.1;
  p.beta = 1.0;
  p.check();
  return p;
}

/// Whether solve_partition's closure fast path answers `p`: the
/// min-weight closure of the problem it solves (condensed unless
/// `preprocess` is off) fits every budget. Tests that exist to drive
/// the simplex assert this is false for their instances.
inline bool closure_fits(const partition::PartitionProblem& p,
                         bool preprocess = true) {
  const partition::PartitionProblem work =
      preprocess ? partition::preprocess(p) : p;
  const auto c = partition::min_weight_closure(work);
  return c && partition::evaluate_assignment(work, c->sides).feasible(work);
}

/// A tiny runnable graph: source -> double -> half -> sink, where
/// `double` duplicates samples (data-expanding) and `half` keeps the
/// first half (data-reducing).
struct TinyApp {
  graph::Graph g;
  graph::OperatorId src = 0, dbl = 0, half = 0, sink = 0;
};

inline TinyApp tiny_app() {
  using graph::Context;
  using graph::Encoding;
  using graph::Frame;
  TinyApp t;
  graph::GraphBuilder b;
  graph::Stream s_half;
  {
    auto node = b.node_scope();
    auto s0 = b.source("src", nullptr);
    auto s1 = b.stateless(
        "double", s0, graph::make_stateless([](const Frame& f, Context& c) {
          std::vector<float> out;
          out.reserve(2 * f.size());
          for (float x : f.samples()) {
            out.push_back(x);
            out.push_back(x);
          }
          if (auto* m = c.cost_meter()) m->charge_int(2 * f.size());
          c.emit(Frame(std::move(out), Encoding::kInt16));
        }));
    s_half = b.stateless(
        "half", s1, graph::make_stateless([](const Frame& f, Context& c) {
          std::vector<float> out(f.samples().begin(),
                                 f.samples().begin() +
                                     static_cast<std::ptrdiff_t>(f.size() / 2));
          if (auto* m = c.cost_meter()) m->charge_float(f.size());
          c.emit(Frame(std::move(out), Encoding::kInt16));
        }));
  }
  t.sink = b.sink("out", s_half);
  t.g = b.build();
  t.src = t.g.find("src");
  t.dbl = t.g.find("double");
  t.half = t.g.find("half");
  return t;
}

/// source "src" -> "op" -> sink, with `fn` (void(const Frame&,
/// Context&)) as op's work function: a graph for metering one
/// hand-built operator.
template <class Fn>
graph::Graph one_op_app(Fn fn) {
  graph::GraphBuilder b;
  graph::Stream op;
  {
    auto node = b.node_scope();
    op = b.stateless("op", b.source("src", nullptr),
                     graph::make_stateless(std::move(fn)));
  }
  b.sink("out", op);
  return b.build();
}

inline std::vector<graph::Frame> int_frames(std::size_t n,
                                            std::size_t samples = 8) {
  std::vector<graph::Frame> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> s(samples);
    for (std::size_t k = 0; k < samples; ++k) {
      s[k] = static_cast<float>((i * samples + k) % 97);
    }
    out.emplace_back(std::move(s), graph::Encoding::kInt16);
  }
  return out;
}

/// Exported value of one counter series in the global registry (0 when
/// the series is not registered yet).
inline double exported(const std::string& name,
                       const obs::Labels& labels = {}) {
  for (const obs::MetricSample& s : obs::Registry::global().snapshot()) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  return 0.0;
}

}  // namespace wbtest
