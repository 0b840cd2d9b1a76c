// The partitioning service (src/serve): canonical graph hashing, the
// LRU solve cache, basis-compatibility validation, and differential
// server-vs-direct testing — the server changes *speed* (hits,
// coalescing, warm bases), never *answers*.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dsp/dct.hpp"
#include "dsp/fft.hpp"
#include "graph/graph.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "partition/rate_search.hpp"
#include "serve/graph_hash.hpp"
#include "serve/server.hpp"
#include "serve/solve_cache.hpp"
#include "test_helpers.hpp"

using namespace wishbone;
using namespace wishbone::serve;

namespace {

graph::OperatorInfo op(const std::string& name, bool source = false,
                       bool sink = false) {
  graph::OperatorInfo i;
  i.name = name;
  i.is_source = source;
  i.is_sink = sink;
  i.num_inputs = source ? 0 : 4;
  return i;
}

/// Permutes the vertices of a problem by `perm` (new index of old v).
partition::PartitionProblem permute(const partition::PartitionProblem& p,
                                    const std::vector<std::size_t>& perm) {
  partition::PartitionProblem q;
  q.vertices.resize(p.vertices.size());
  for (std::size_t v = 0; v < p.vertices.size(); ++v) {
    q.vertices[perm[v]] = p.vertices[v];
  }
  for (const partition::ProblemEdge& e : p.edges) {
    q.edges.push_back(
        partition::ProblemEdge{perm[e.from], perm[e.to], e.bandwidth});
  }
  q.cpu_budget = p.cpu_budget;
  q.net_budget = p.net_budget;
  q.ram_budget = p.ram_budget;
  q.rom_budget = p.rom_budget;
  q.alpha = p.alpha;
  q.beta = p.beta;
  return q;
}

std::shared_ptr<const partition::PartitionResult> fake_result(
    double objective, bool with_basis) {
  auto r = std::make_shared<partition::PartitionResult>();
  r->feasible = true;
  r->objective = objective;
  if (with_basis) {
    r->solver.final_basis.basic = {0};
    r->solver.final_basis.at_upper = {0, 0};
  }
  return r;
}

CacheKey key_of(std::uint64_t g, const std::string& plat,
                std::vector<std::int64_t> profile) {
  CacheKey k;
  k.graph_hash = g;
  k.platform_id = plat;
  k.profile = std::move(profile);
  return k;
}

}  // namespace

// ---------------------------------------------------------- GraphHash

TEST(GraphHash, InsertionOrderAndIdentityInvariance) {
  // The same diamond (src -> a, src -> b, a/b -> sink) assembled in two
  // different operator/edge orders must hash identically: the cache key
  // may depend on structure only, never on insertion order.
  graph::Graph g1;
  const auto s1 = g1.add_operator(op("src", true), nullptr);
  const auto a1 = g1.add_operator(op("a"), nullptr);
  const auto b1 = g1.add_operator(op("b"), nullptr);
  const auto k1 = g1.add_operator(op("out", false, true), nullptr);
  g1.connect(s1, a1, 0);
  g1.connect(s1, b1, 0);
  g1.connect(a1, k1, 0);
  g1.connect(b1, k1, 1);

  graph::Graph g2;
  const auto k2 = g2.add_operator(op("out", false, true), nullptr);
  const auto b2 = g2.add_operator(op("b"), nullptr);
  const auto a2 = g2.add_operator(op("a"), nullptr);
  const auto s2 = g2.add_operator(op("src", true), nullptr);
  g2.connect(b2, k2, 1);
  g2.connect(a2, k2, 0);
  g2.connect(s2, b2, 0);
  g2.connect(s2, a2, 0);

  EXPECT_EQ(canonical_graph_hash(g1), canonical_graph_hash(g2));
  EXPECT_NE(canonical_graph_hash(g1), 0u);
}

TEST(GraphHash, OneEdgeDifferenceChangesHash) {
  auto build = [](std::size_t sink_port_of_b) {
    graph::Graph g;
    const auto s = g.add_operator(op("src", true), nullptr);
    const auto a = g.add_operator(op("a"), nullptr);
    const auto b = g.add_operator(op("b"), nullptr);
    const auto k = g.add_operator(op("out", false, true), nullptr);
    g.connect(s, a, 0);
    g.connect(s, b, 0);
    g.connect(a, k, 0);
    g.connect(b, k, sink_port_of_b);
    return g;
  };
  // Same vertices, same edge count — only one port differs.
  EXPECT_NE(canonical_graph_hash(build(1)), canonical_graph_hash(build(2)));

  // And an extra edge differs from the base graph too.
  graph::Graph g = build(1);
  const std::uint64_t before = canonical_graph_hash(g);
  g.connect(1, 2, 1);  // a -> b
  EXPECT_NE(before, canonical_graph_hash(g));
}

TEST(GraphHash, ProblemHashVertexPermutationInvariance) {
  const partition::PartitionProblem p = wbtest::random_problem(7, 3, 3);
  // Reverse renumbering: vertex v becomes n-1-v.
  std::vector<std::size_t> perm(p.num_vertices());
  for (std::size_t v = 0; v < perm.size(); ++v) {
    perm[v] = perm.size() - 1 - v;
  }
  const partition::PartitionProblem q = permute(p, perm);
  EXPECT_EQ(canonical_problem_hash(p), canonical_problem_hash(q));

  // One extra edge breaks equality.
  partition::PartitionProblem r = p;
  r.edges.push_back(partition::ProblemEdge{0, r.num_vertices() - 1, 5.0});
  EXPECT_NE(canonical_problem_hash(p), canonical_problem_hash(r));
}

TEST(GraphHash, ProfileQuantizationCellsAndSentinels) {
  partition::PartitionProblem p = wbtest::random_problem(11, 2, 2);
  const auto base = quantize_profile(p, 0.05);
  EXPECT_EQ(base, quantize_profile(p, 0.05));  // deterministic

  // A tiny (<< 5%) perturbation of every weight stays in the same cell
  // almost everywhere; a 2x scale of one vertex's cpu never does.
  partition::PartitionProblem nudged = p;
  for (auto& v : nudged.vertices) v.cpu *= 1.0001;
  const auto near = quantize_profile(nudged, 0.05);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < base.size(); ++i) moved += base[i] != near[i];
  EXPECT_LE(moved, base.size() / 4);

  partition::PartitionProblem scaled = p;
  scaled.vertices[1].cpu = p.vertices[1].cpu == 0.0 ? 1.0
                                                    : p.vertices[1].cpu * 2.0;
  EXPECT_NE(base, quantize_profile(scaled, 0.05));

  // Zero and "unbudgeted" land in reserved cells distinct from any
  // finite measurement.
  partition::PartitionProblem z = p;
  z.ram_budget = 0.0;
  partition::PartitionProblem u = p;
  u.ram_budget = partition::kNoResourceBudget;
  partition::PartitionProblem f = p;
  f.ram_budget = 1e6;
  const std::size_t ram_ix = 3 * p.num_vertices() + p.num_edges() + 2;
  EXPECT_NE(quantize_profile(z, 0.05)[ram_ix], quantize_profile(u, 0.05)[ram_ix]);
  EXPECT_NE(quantize_profile(z, 0.05)[ram_ix], quantize_profile(f, 0.05)[ram_ix]);
  EXPECT_NE(quantize_profile(u, 0.05)[ram_ix], quantize_profile(f, 0.05)[ram_ix]);
}

// ---------------------------------------------------------- SolveCache

TEST(SolveCache, HitMissStaleCounters) {
  SolveCache cache(8);
  const auto k1 = key_of(101, "mote", {1, 2, 3});
  const auto k1_drift = key_of(101, "mote", {1, 2, 4});
  const auto k2 = key_of(202, "mote", {1, 2, 3});
  const auto k1_other_plat = key_of(101, "phone", {1, 2, 3});

  CacheOutcome out;
  EXPECT_EQ(cache.lookup(k1, &out), nullptr);
  EXPECT_EQ(out, CacheOutcome::kMiss);

  cache.insert(k1, fake_result(1.0, true));
  auto hit = cache.lookup(k1, &out);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(out, CacheOutcome::kHit);
  EXPECT_DOUBLE_EQ(hit->objective, 1.0);

  // Same (graph, platform), different profile cell: stale, not miss.
  EXPECT_EQ(cache.lookup(k1_drift, &out), nullptr);
  EXPECT_EQ(out, CacheOutcome::kStale);
  // Different graph or platform: plain miss.
  EXPECT_EQ(cache.lookup(k2, &out), nullptr);
  EXPECT_EQ(out, CacheOutcome::kMiss);
  EXPECT_EQ(cache.lookup(k1_other_plat, &out), nullptr);
  EXPECT_EQ(out, CacheOutcome::kMiss);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);  // every non-hit, stale included
  EXPECT_EQ(s.stale, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SolveCache, LruEvictionPrefersStaleEntries) {
  SolveCache cache(2);
  const auto ka = key_of(1, "p", {1});
  const auto kb = key_of(2, "p", {1});
  const auto kc = key_of(3, "p", {1});
  cache.insert(ka, fake_result(1.0, false));
  cache.insert(kb, fake_result(2.0, false));

  // Touch ka so kb is least-recently-used, then overflow.
  CacheOutcome out;
  ASSERT_NE(cache.lookup(ka, &out), nullptr);
  cache.insert(kc, fake_result(3.0, false));

  EXPECT_NE(cache.lookup(ka, &out), nullptr);
  EXPECT_EQ(cache.lookup(kb, &out), nullptr);  // evicted
  EXPECT_NE(cache.lookup(kc, &out), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SolveCache, DonorBasisSurvivesEviction) {
  SolveCache cache(1);
  const auto ka = key_of(42, "mote", {1});
  cache.insert(ka, fake_result(1.0, /*with_basis=*/true));
  // A different graph's entry evicts ka's.
  cache.insert(key_of(77, "mote", {1}), fake_result(2.0, false));

  CacheOutcome out;
  EXPECT_EQ(cache.lookup(ka, &out), nullptr);
  // ...but the warm-start donor for (42, mote) is still there.
  EXPECT_FALSE(cache.warm_basis_donor(42, "mote").empty());
  EXPECT_TRUE(cache.warm_basis_donor(42, "phone").empty());
  EXPECT_TRUE(cache.warm_basis_donor(77, "mote").empty());  // no basis stored
}

// --------------------------------------------------------- BasisCompat

namespace {

/// Two LPs with identical shape (n = 2 structural, m = 2 rows) but
/// different constraint sparsity. Before bases carried a structure
/// stamp, a basis extracted from one would load into the other.
ilp::LinearProgram lp_dense_rows() {
  ilp::LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 10.0, -1.0, false);
  const int y = lp.add_variable("y", 0.0, 10.0, -1.0, false);
  ilp::Constraint c1;
  c1.terms = {{x, 1.0}, {y, 1.0}};
  c1.rel = ilp::Relation::kLe;
  c1.rhs = 6.0;
  lp.add_constraint(c1);
  ilp::Constraint c2;
  c2.terms = {{x, 2.0}, {y, 1.0}};
  c2.rel = ilp::Relation::kLe;
  c2.rhs = 9.0;
  lp.add_constraint(c2);
  return lp;
}

ilp::LinearProgram lp_sparse_rows() {
  ilp::LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 10.0, -1.0, false);
  const int y = lp.add_variable("y", 0.0, 10.0, -1.0, false);
  ilp::Constraint c1;
  c1.terms = {{x, 1.0}};  // y's coefficient vanished
  c1.rel = ilp::Relation::kLe;
  c1.rhs = 6.0;
  lp.add_constraint(c1);
  ilp::Constraint c2;
  c2.terms = {{x, 2.0}, {y, 1.0}};
  c2.rel = ilp::Relation::kLe;
  c2.rhs = 9.0;
  lp.add_constraint(c2);
  return lp;
}

}  // namespace

TEST(BasisCompat, StructureHashSeparatesSameShapeModels) {
  const ilp::LinearProgram a = lp_dense_rows();
  const ilp::LinearProgram b = lp_sparse_rows();
  EXPECT_NE(a.structure_hash(), 0u);
  EXPECT_NE(a.structure_hash(), b.structure_hash());
  // Coefficient values don't participate: uniformly rescaling a row
  // keeps the hash (that's what makes rate-probe warm starts legal).
  ilp::LinearProgram a2 = lp_dense_rows();
  EXPECT_EQ(a.structure_hash(), a2.structure_hash());
}

TEST(BasisCompat, LoadRejectsSameShapeDifferentStructure) {
  const ilp::LinearProgram a = lp_dense_rows();
  const ilp::LinearProgram b = lp_sparse_rows();

  ilp::SimplexState sa(a);
  ASSERT_EQ(sa.solve().status, ilp::SolveStatus::kOptimal);
  const ilp::Basis basis = sa.extract_basis();
  ASSERT_EQ(basis.structure_hash, a.structure_hash());
  EXPECT_EQ(basis.basic.size(), 2u);     // m
  EXPECT_EQ(basis.at_upper.size(), 4u);  // n + m

  // The regression: same shape, so only the structure hash tells.
  ilp::SimplexState sb(b);
  EXPECT_EQ(sb.load_basis(basis), ilp::BasisRejectReason::kStructure);
  const ilp::LpSolution sol = sb.solve();
  ASSERT_EQ(sol.status, ilp::SolveStatus::kOptimal);
  // min -x - y s.t. x <= 6, 2x + y <= 9: optimum x = 0, y = 9.
  EXPECT_NEAR(sol.objective, -9.0, 1e-7);

  // Re-loading into a state over the source model still works.
  ilp::SimplexState sa2(a);
  EXPECT_EQ(sa2.load_basis(basis), ilp::BasisRejectReason::kNone);
}

namespace {

/// A problem family whose *constraint structure* changes at rate 5:
/// below it the work->sink stream is silent (bandwidth exactly 0), so
/// its term drops out of the net row and the ILP built at rate 4 is
/// structurally different from the one at rate 6 — with the same shape
/// (when preprocessing is off). `work` never fits the node's CPU, so
/// every probe's min-weight closure (work on the node, where it cuts
/// the radio load) breaks the CPU budget and branch and bound answers.
/// The maximum sustainable rate, where work's input fits the radio, is
/// `knee`.
partition::PartitionProblem cliff_problem(double rate, double knee = 7.0) {
  partition::PartitionProblem p;
  partition::ProblemVertex src, work, sink;
  src.name = "src";
  src.req = graph::Requirement::kNode;
  work.name = "work";
  work.req = graph::Requirement::kMovable;
  work.cpu = 1.0 + rate / knee;
  sink.name = "sink";
  sink.req = graph::Requirement::kServer;
  p.vertices = {src, work, sink};
  const double out_bw = rate < 5.0 ? 0.0 : rate;
  p.edges = {partition::ProblemEdge{0, 1, 100.0 * rate},
             partition::ProblemEdge{1, 2, out_bw}};
  p.cpu_budget = 1.0;
  p.net_budget = 100.0 * knee;
  p.alpha = 0.0;
  p.beta = 1.0;
  return p;
}

}  // namespace

TEST(BasisCompat, RateSearchColdStartsWhenProbeChangesStructure) {
  // rate_search threads final_basis between probes of cliff_problem;
  // before the stamp check, the stale basis loaded silently across the
  // structure cliff.
  const double knee = 7.0;
  auto problem_at = [&](double rate) { return cliff_problem(rate, knee); };

  partition::RateSearchOptions opts;
  opts.min_rate = 0.5;  // bisection probes both sides of the 5.0 cliff
  opts.max_rate = 1000.0;
  opts.rel_tol = 0.001;
  opts.partition.preprocess = false;  // keep every probe the same shape
  for (double rate : {0.5, 4.0, 6.0, 1000.0}) {
    ASSERT_FALSE(wbtest::closure_fits(problem_at(rate), false)) << rate;
  }

  const auto res = partition::max_sustainable_rate(problem_at, opts);
  ASSERT_TRUE(res.any_feasible);
  EXPECT_NEAR(res.max_rate, knee, 0.05 * knee);
  // At least one probe crossed the structure cliff and must have
  // rejected (not silently loaded) the inherited basis.
  EXPECT_GE(res.probes_with_rejected_basis, 1u);
  EXPECT_GE(res.probes_with_inherited_basis, 1u);

  // Differential: the winning cut equals a cold direct solve.
  partition::PartitionOptions cold;
  cold.preprocess = false;
  const auto direct = partition::solve_partition(problem_at(res.max_rate), cold);
  ASSERT_TRUE(direct.feasible);
  EXPECT_NEAR(res.partition_at_max.objective, direct.objective, 1e-9);
}

// --------------------------------------------------------------- Serve

namespace {

SolveRequest request_for(const partition::PartitionProblem& p,
                         const std::string& platform) {
  SolveRequest req;
  req.problem = p;
  req.platform_id = platform;
  return req;
}

/// Scales every continuous weight by `f` — structure-preserving drift
/// (no coefficient crosses zero), guaranteed to change the 5% cell.
partition::PartitionProblem drift(const partition::PartitionProblem& p,
                                  double f) {
  partition::PartitionProblem q = p;
  for (auto& v : q.vertices) v.cpu *= f;
  for (auto& e : q.edges) e.bandwidth *= f;
  return q;
}

}  // namespace

TEST(Serve, DifferentialAgainstDirectSolves) {
  // The server must answer exactly what partition::solve_partition
  // answers, across worker counts and cold/warm/stale cache states.
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ServeOptions so;
    so.workers = workers;
    so.cache_capacity = 64;
    PartitionServer server(so);

    std::vector<partition::PartitionProblem> problems;
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      problems.push_back(wbtest::random_problem(seed));
    }

    // Round 1: all cold. Submit everything before collecting so several
    // solves are genuinely in flight at workers > 1.
    std::vector<std::future<SolveResponse>> futs;
    futs.reserve(problems.size());
    for (const auto& p : problems) futs.push_back(server.submit(request_for(p, "mote")));
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const SolveResponse r = futs[i].get();
      const auto direct = partition::solve_partition(problems[i], so.partition);
      ASSERT_EQ(r.result->feasible, direct.feasible) << "workers=" << workers;
      EXPECT_NEAR(r.result->objective, direct.objective, 1e-9)
          << "workers=" << workers << " cold seed=" << i + 1;
    }

    // Round 2: identical resubmits — answered from cache, same answer.
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const SolveResponse r = server.submit(request_for(problems[i], "mote")).get();
      EXPECT_EQ(r.source, ResponseSource::kCacheHit) << "workers=" << workers;
      const auto direct = partition::solve_partition(problems[i], so.partition);
      EXPECT_NEAR(r.result->objective, direct.objective, 1e-9);
    }

    // Round 3: drifted profiles — stale cells, warm-started re-solves.
    // Seed 1's closure breaks the CPU budget before and after drift, so
    // its re-solves run on the simplex and hand on a basis.
    ASSERT_FALSE(wbtest::closure_fits(problems[0]));
    ASSERT_FALSE(wbtest::closure_fits(drift(problems[0], 1.35)));
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto drifted = drift(problems[i], 1.35);
      const SolveResponse r = server.submit(request_for(drifted, "mote")).get();
      EXPECT_NE(r.source, ResponseSource::kCacheHit) << "workers=" << workers;
      const auto direct = partition::solve_partition(drifted, so.partition);
      ASSERT_EQ(r.result->feasible, direct.feasible);
      EXPECT_NEAR(r.result->objective, direct.objective, 1e-9)
          << "workers=" << workers << " stale seed=" << i + 1;
    }

    const ServerStats s = server.stats();
    EXPECT_EQ(s.requests, 3 * problems.size());
    EXPECT_EQ(s.cache_hits, problems.size());
    EXPECT_EQ(s.solves, 2 * problems.size());
    EXPECT_EQ(s.stale_resolves, problems.size());
    // Drift was structure-preserving, so donors must have been accepted.
    EXPECT_EQ(s.warm_basis_rejected, 0u);
    EXPECT_GE(s.warm_basis_used, 1u);
  }
}

TEST(Serve, ConcurrentClientsMatchDirectSolves) {
  ServeOptions so;
  so.workers = 8;
  PartitionServer server(so);

  constexpr std::size_t kClients = 4, kPerClient = 6;
  std::vector<std::vector<double>> got(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        // Clients overlap on seeds so coalescing and hits both happen.
        const auto p = wbtest::random_problem(
            static_cast<std::uint32_t>(1 + (c + i) % 5));
        got[c].push_back(
            server.submit(request_for(p, "mote")).get().result->objective);
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      const auto p = wbtest::random_problem(
          static_cast<std::uint32_t>(1 + (c + i) % 5));
      const auto direct = partition::solve_partition(p, so.partition);
      EXPECT_NEAR(got[c][i], direct.objective, 1e-9)
          << "client " << c << " request " << i;
    }
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests, kClients * kPerClient);
  EXPECT_EQ(s.requests, s.cache_hits + s.coalesced + s.solves);
}

TEST(Serve, CoalescesConcurrentIdenticalRequests) {
  ServeOptions so;
  so.workers = 0;  // manual drain: all 8 submits land before any solve
  PartitionServer server(so);
  const auto p = wbtest::random_problem(3);

  std::vector<std::future<SolveResponse>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit(request_for(p, "mote")));

  EXPECT_TRUE(server.run_one());   // one queued batch serves all eight
  EXPECT_FALSE(server.run_one());  // nothing left

  std::size_t solved = 0, coalesced = 0;
  double objective = 0.0;
  for (auto& f : futs) {
    const SolveResponse r = f.get();
    solved += r.source == ResponseSource::kSolved;
    coalesced += r.source == ResponseSource::kCoalesced;
    objective = r.result->objective;
    EXPECT_TRUE(r.result->feasible);
  }
  EXPECT_EQ(solved, 1u);
  EXPECT_EQ(coalesced, 7u);

  const auto direct = partition::solve_partition(p, so.partition);
  EXPECT_NEAR(objective, direct.objective, 1e-9);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests, 8u);
  EXPECT_EQ(s.coalesced, 7u);
  EXPECT_EQ(s.solves, 1u);
}

TEST(Serve, BoundedQueueRejectsWhenFull) {
  ServeOptions so;
  so.workers = 0;
  so.queue_capacity = 2;
  PartitionServer server(so);

  auto f1 = server.try_submit(request_for(wbtest::random_problem(1), "m"));
  auto f2 = server.try_submit(request_for(wbtest::random_problem(2), "m"));
  auto f3 = server.try_submit(request_for(wbtest::random_problem(3), "m"));
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_FALSE(f3.has_value());  // queue full, rejected without queuing
  EXPECT_EQ(server.stats().rejected, 1u);

  // Coalescing doesn't need a slot even at capacity.
  auto f_coal = server.try_submit(request_for(wbtest::random_problem(1), "m"));
  ASSERT_TRUE(f_coal.has_value());

  EXPECT_TRUE(server.run_one());
  // Draining made room.
  auto f4 = server.try_submit(request_for(wbtest::random_problem(3), "m"));
  ASSERT_TRUE(f4.has_value());
  while (server.run_one()) {
  }
  EXPECT_TRUE(f1->get().result->feasible);
  EXPECT_TRUE(f_coal->get().result->feasible);
  EXPECT_TRUE(f4->get().result->feasible);
}

TEST(Serve, StopFlushesQueuedRequests) {
  ServeOptions so;
  so.workers = 0;
  PartitionServer server(so);
  auto f1 = server.submit(request_for(wbtest::random_problem(1), "m"));
  auto f2 = server.submit(request_for(wbtest::random_problem(2), "m"));
  server.stop();
  EXPECT_EQ(f1.get().source, ResponseSource::kShutdown);
  const SolveResponse r2 = f2.get();
  EXPECT_EQ(r2.source, ResponseSource::kShutdown);
  EXPECT_FALSE(r2.result->feasible);
  EXPECT_EQ(server.stats().shutdown_flushed, 2u);
  // Submits after stop() answer kShutdown instead of hanging.
  EXPECT_EQ(server.submit(request_for(wbtest::random_problem(3), "m"))
                .get()
                .source,
            ResponseSource::kShutdown);
}

TEST(Serve, WarmBasisFlowsAcrossDriftedResolves) {
  ServeOptions so;
  so.workers = 0;
  PartitionServer server(so);
  const auto p = wbtest::random_problem(5);
  // Both solves run on the simplex: the closure breaks the CPU budget.
  ASSERT_FALSE(wbtest::closure_fits(p));
  ASSERT_FALSE(wbtest::closure_fits(drift(p, 1.25)));

  auto f1 = server.submit(request_for(p, "mote"));
  ASSERT_TRUE(server.run_one());
  const SolveResponse cold = f1.get();
  EXPECT_FALSE(cold.result->solver.warm_basis_loaded);  // nothing yet
  EXPECT_EQ(cold.cache_outcome, CacheOutcome::kMiss);

  auto f2 = server.submit(request_for(drift(p, 1.25), "mote"));
  ASSERT_TRUE(server.run_one());
  const SolveResponse warm = f2.get();
  EXPECT_EQ(warm.cache_outcome, CacheOutcome::kStale);
  // The donor is accepted: same structure.
  EXPECT_TRUE(warm.result->solver.warm_basis_loaded);

  const auto direct =
      partition::solve_partition(drift(p, 1.25), so.partition);
  EXPECT_NEAR(warm.result->objective, direct.objective, 1e-9);
  EXPECT_EQ(server.stats().warm_basis_used, 1u);
  EXPECT_EQ(server.stats().warm_basis_rejected, 0u);
}

TEST(Serve, StructureRejectedDonorMovesEveryRejectViewByOne) {
  // Same explicit graph_hash and platform, same ILP shape, different
  // structure: the second request is a stale re-solve whose donor basis
  // load_basis turns away as kStructure. The per-server stat,
  // the unlabeled series and the structure series each count it once.
  const std::string name = "wishbone_serve_warm_basis_rejected";
  const obs::Labels structure{{"reason", "structure"}};
  const double total0 = wbtest::exported(name);
  const double structure0 = wbtest::exported(name, structure);

  ServeOptions so;
  so.workers = 0;
  so.partition.preprocess = false;  // keep both problems the same shape
  PartitionServer server(so);
  for (double rate : {6.0, 4.0}) {
    ASSERT_FALSE(wbtest::closure_fits(cliff_problem(rate), false));
    SolveRequest req;
    req.problem = cliff_problem(rate);
    req.platform_id = "mote";
    req.graph_hash = 0x5eedULL;
    auto fut = server.submit(std::move(req));
    ASSERT_TRUE(server.run_one());
    ASSERT_TRUE(fut.get().result->feasible);
  }

  const ServerStats st = server.stats();
  EXPECT_EQ(st.stale_resolves, 1u);
  EXPECT_EQ(st.warm_basis_used, 0u);
  EXPECT_EQ(st.warm_basis_rejected, 1u);
  EXPECT_EQ(wbtest::exported(name) - total0, 1.0);
  EXPECT_EQ(wbtest::exported(name, structure) - structure0, 1.0);
}

TEST(Serve, LiveServersCountTheirOwnRequestsAndExportTheSum) {
  const double requests0 = wbtest::exported("wishbone_serve_requests");
  const double hits0 = wbtest::exported("wishbone_cache_hits");

  ServeOptions so;
  so.workers = 0;
  auto a = std::make_unique<PartitionServer>(so);
  PartitionServer b(so);
  const auto p = wbtest::random_problem(21);
  auto fa = a->submit(request_for(p, "mote"));
  ASSERT_TRUE(a->run_one());
  ASSERT_TRUE(fa.get().result->feasible);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(a->submit(request_for(p, "mote")).get().source,
              ResponseSource::kCacheHit);
  }
  auto fb = b.submit(request_for(p, "mote"));  // b's own cache: a miss
  ASSERT_TRUE(b.run_one());
  EXPECT_EQ(fb.get().source, ResponseSource::kSolved);

  EXPECT_EQ(a->stats().requests, 3u);
  EXPECT_EQ(a->stats().cache_hits, 2u);
  EXPECT_EQ(a->stats().cache.hits, 2u);
  EXPECT_EQ(b.stats().requests, 1u);
  EXPECT_EQ(b.stats().cache_hits, 0u);
  EXPECT_EQ(b.stats().cache.hits, 0u);
  EXPECT_EQ(wbtest::exported("wishbone_serve_requests") - requests0, 4.0);
  EXPECT_EQ(wbtest::exported("wishbone_cache_hits") - hits0, 2.0);

  // Destroying a server folds its counts into the registry: the export
  // keeps its total, and a flight recorder spanning the destruction
  // sees no delta (in particular no negative one) for its counters.
  obs::FlightRecorder recorder(4, 0);
  a.reset();
  EXPECT_EQ(wbtest::exported("wishbone_serve_requests") - requests0, 4.0);
  EXPECT_EQ(wbtest::exported("wishbone_cache_hits") - hits0, 2.0);
  recorder.trigger(0.0, "server_destroyed");
  const std::vector<obs::FlightSnapshot> snaps = recorder.snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  for (const obs::MetricDelta& d : snaps[0].deltas) {
    for (const char* moved :
         {"wishbone_serve_requests", "wishbone_serve_cache_hits",
          "wishbone_serve_solves", "wishbone_cache_hits",
          "wishbone_cache_misses", "wishbone_cache_insertions"}) {
      EXPECT_NE(d.name, moved) << "delta " << d.delta;
    }
  }
}

// ------------------------------------------------- DspPlanConcurrency

TEST(DspPlanConcurrency, ConcurrentFirstUseSharesOnePlan) {
  // 8 threads race the global plan caches on sizes nothing else in the
  // suite uses. First-inserter-wins: everyone must end up with the
  // *same* plan object, and DCT outputs must be identical.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kFftSize = 1u << 13;
  const std::vector<float> x = [] {
    std::vector<float> v(96);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(0.37f * static_cast<float>(i));
    }
    return v;
  }();

  std::vector<std::shared_ptr<const dsp::FftPlan>> plans(kThreads);
  std::vector<std::vector<float>> dcts(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(kThreads)) {
      }
      plans[t] = dsp::fft_plan(kFftSize);
      dcts[t] = dsp::dct_ii(x, 17);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(plans[t], nullptr);
    EXPECT_EQ(plans[t], plans[0]) << "thread " << t << " got a duplicate plan";
    ASSERT_EQ(dcts[t].size(), 17u);
    EXPECT_EQ(dcts[t], dcts[0]) << "thread " << t;
  }
}

// ----------------------------------------------- Serve: deadlines

TEST(Serve, PostStopSubmitsAnswerShutdownDeterministically) {
  ServeOptions so;
  so.workers = 0;
  PartitionServer server(so);
  const auto p = wbtest::random_problem(21);

  // Solve once so the result is cached — then prove the cache is NOT
  // consulted after stop(): a stopped server serves nothing.
  auto f1 = server.submit(request_for(p, "mote"));
  ASSERT_TRUE(server.run_one());
  ASSERT_EQ(f1.get().source, ResponseSource::kSolved);

  server.stop();
  for (int i = 0; i < 3; ++i) {
    const SolveResponse r = server.submit(request_for(p, "mote")).get();
    EXPECT_EQ(r.source, ResponseSource::kShutdown) << "attempt " << i;
    ASSERT_NE(r.result, nullptr);
    EXPECT_FALSE(r.result->feasible);
  }
  EXPECT_EQ(server.stats().cache_hits, 0u);
}

TEST(Serve, ExpiredWaitersAreShedBeforeSolving) {
  ServeOptions so;
  so.workers = 0;
  PartitionServer server(so);

  SolveRequest req = request_for(wbtest::random_problem(22), "mote");
  req.deadline_s = 1e-9;  // already expired by the time a worker looks
  auto fut = server.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  // run_one consumed the queue entry but skipped the solve entirely.
  EXPECT_TRUE(server.run_one());
  EXPECT_FALSE(server.run_one());
  const SolveResponse r = fut.get();
  EXPECT_EQ(r.source, ResponseSource::kExpired);
  ASSERT_NE(r.result, nullptr);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.deadline_expired, 1u);
  EXPECT_EQ(st.shed_solves, 1u);
  EXPECT_EQ(st.solves, 0u);
}

TEST(Serve, ExpiredCoalescerShedsWhileLiveWaiterIsServed) {
  ServeOptions so;
  so.workers = 0;
  PartitionServer server(so);
  const auto p = wbtest::random_problem(23);

  auto live = server.submit(request_for(p, "mote"));  // no deadline
  SolveRequest doomed = request_for(p, "mote");
  doomed.deadline_s = 1e-9;
  auto dead = server.submit(std::move(doomed));  // coalesces onto `live`
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  ASSERT_TRUE(server.run_one());
  EXPECT_EQ(dead.get().source, ResponseSource::kExpired);
  const SolveResponse r = live.get();
  EXPECT_EQ(r.source, ResponseSource::kSolved);
  EXPECT_TRUE(r.result->feasible);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.solves, 1u);
  EXPECT_EQ(st.deadline_expired, 1u);
  EXPECT_EQ(st.shed_solves, 0u);
}

TEST(Serve, BlockedSubmitTimesOutAtItsDeadline) {
  ServeOptions so;
  so.workers = 0;
  so.queue_capacity = 1;
  PartitionServer server(so);

  // Fill the queue; nothing drains it (workers == 0).
  auto parked = server.submit(request_for(wbtest::random_problem(24), "mote"));
  SolveRequest req = request_for(wbtest::random_problem(25), "mote");
  req.deadline_s = 0.02;
  const auto t0 = std::chrono::steady_clock::now();
  const SolveResponse r = server.submit(std::move(req)).get();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.source, ResponseSource::kExpired);
  EXPECT_GE(waited, 0.015);  // actually waited for the deadline
  EXPECT_LT(waited, 5.0);    // and did not block forever
  EXPECT_EQ(server.stats().submit_timeouts, 1u);

  ASSERT_TRUE(server.run_one());
  EXPECT_EQ(parked.get().source, ResponseSource::kSolved);
}

// -------------------------------------------------------- ServeStress

// Race harness for stop() vs concurrent submit()/run_one() — the
// workers == 0 manual-drain mode where stop() used to move promises
// out of a batch a drainer was mid-solve on (std::future_error when
// the solve landed). Runs under the solver_fast label so the TSan and
// ASan CI jobs exercise it. Every future must resolve; no exceptions.
TEST(ServeStress, StopRacesManualDrainAndSubmitters) {
  for (std::uint32_t round = 0; round < 8; ++round) {
    ServeOptions so;
    so.workers = 0;
    so.queue_capacity = 8;
    PartitionServer server(so);

    std::atomic<bool> go{false};
    std::atomic<bool> quit{false};
    std::mutex futs_mu;
    std::vector<std::future<SolveResponse>> futs;

    std::thread drainer([&] {
      while (!go.load()) {
      }
      while (!quit.load()) {
        (void)server.run_one();
      }
      // Final drain: anything still queued after stop() was flushed by
      // stop itself; run_one on an empty queue is a no-op.
      (void)server.run_one();
    });
    std::thread submitter([&] {
      while (!go.load()) {
      }
      for (std::uint32_t i = 0; i < 40 && !quit.load(); ++i) {
        // Distinct tiny problems -> distinct keys -> real queue traffic.
        auto req = request_for(
            wbtest::random_problem(100 + round * 64 + i, 2, 2), "mote");
        req.deadline_s = (i % 3 == 0) ? 1e-4 : 0.0;  // mix in shedding
        auto f = server.try_submit(std::move(req));
        if (f) {
          std::lock_guard<std::mutex> lk(futs_mu);
          futs.push_back(std::move(*f));
        }
      }
    });

    go.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 3));
    server.stop();  // races the drainer's in-flight run_one
    quit.store(true);
    submitter.join();
    drainer.join();

    std::lock_guard<std::mutex> lk(futs_mu);
    for (auto& f : futs) {
      // The hard guarantee: every accepted submit resolves — no hangs,
      // no future_error from promises moved out mid-solve.
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "round " << round;
      const SolveResponse r = f.get();
      ASSERT_NE(r.result, nullptr);
    }
  }
}

TEST(ServeStress, ScrapesRaceServerConstructionAndDestruction) {
  // prometheus_text() in a loop while other threads build, use and
  // destroy servers. A server's counters detach under the registry
  // mutex that a scrape holds, folding their values in as they go, so
  // every scrape sees a monotone request total and none reads a
  // destroyed instance.
  const double requests0 = wbtest::exported("wishbone_serve_requests");
  const auto p = wbtest::random_problem(9);
  constexpr int kThreads = 3, kServersEach = 6, kRequestsEach = 4;

  std::atomic<bool> done{false};
  std::size_t scrapes = 0;
  bool monotone = true;
  std::thread scraper([&] {
    const std::string needle = "\nwishbone_serve_requests_total ";
    double last = requests0;
    while (!done.load()) {
      const std::string text = obs::Registry::global().prometheus_text();
      const std::size_t at = text.find(needle);
      if (at != std::string::npos) {
        const double v = std::stod(text.substr(at + needle.size()));
        if (v < last) monotone = false;
        last = v;
      }
      ++scrapes;
    }
  });
  std::vector<std::thread> builders;
  for (int t = 0; t < kThreads; ++t) {
    builders.emplace_back([&] {
      for (int s = 0; s < kServersEach; ++s) {
        ServeOptions so;
        so.workers = 1;
        PartitionServer server(so);
        for (int r = 0; r < kRequestsEach; ++r) {
          EXPECT_TRUE(server.submit(request_for(p, "mote")).get()
                          .result->feasible);
        }
      }
    });
  }
  for (std::thread& t : builders) t.join();
  done.store(true);
  scraper.join();

  EXPECT_TRUE(monotone);
  EXPECT_GT(scrapes, 0u);
  EXPECT_EQ(wbtest::exported("wishbone_serve_requests") - requests0,
            static_cast<double>(kThreads * kServersEach * kRequestsEach));
}
