// Ablation — the design choices DESIGN.md calls out:
//  1. §4.1 preprocessing on/off: instance size and solve time;
//  2. restricted (Eq. 6-7) vs general (Eq. 3-5) formulation: variable
//     count and solve time on the same instances;
//  3. ILP vs the greedy heuristic: optimality gap across random DAGs;
//  4. warm-start rounding on/off: branch-and-bound node counts.
#include <random>

#include "bench_common.hpp"
#include "graph/pinning.hpp"
#include "partition/baselines.hpp"
#include "partition/partitioner.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace wishbone;
using namespace wishbone::partition;

PartitionProblem random_layered(std::uint32_t seed, std::size_t layers,
                                std::size_t width) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> cpu(0.01, 0.2);
  std::uniform_real_distribution<double> shrink(0.4, 1.1);
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
  std::vector<double> prev_bw;
  for (std::size_t i = 0; i < width; ++i) {
    prev.push_back(add(Requirement::kNode, 0.0));
    prev_bw.push_back(100.0);
  }
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<std::size_t> cur;
    std::vector<double> cur_bw;
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t v = add(Requirement::kMovable, cpu(rng));
      const std::size_t from = prev[rng() % prev.size()];
      const double bw = prev_bw[from % width] * shrink(rng);
      p.edges.push_back(ProblemEdge{from, v, bw});
      cur.push_back(v);
      cur_bw.push_back(bw);
    }
    prev = cur;
    prev_bw = cur_bw;
  }
  const std::size_t sink = add(Requirement::kServer, 0.0);
  for (std::size_t i = 0; i < prev.size(); ++i) {
    p.edges.push_back(ProblemEdge{prev[i], sink, prev_bw[i]});
  }
  p.cpu_budget = 0.5;
  p.net_budget = 1e9;
  p.alpha = 0.05;
  p.beta = 1.0;
  return p;
}

}  // namespace

int main() {
  using wishbone::util::Stopwatch;
  bench::header("Ablation", "preprocessing / formulation / heuristic / warm start");

  // --- 1 & 2 on the full EEG app. Same protocol as the Fig. 6 sweep:
  // CPU-bound knapsack (other budgets lifted) at a mid-sweep rate where
  // the instance is feasible but combinatorially hard, with a fixed
  // node budget so configurations compare at equal search breadth.
  auto pe = bench::profiled_eeg(apps::EegConfig{}, 3);
  const auto pins = graph::analyze_pins(pe.app.g, graph::Mode::kPermissive);
  auto prob = make_problem(pe.app.g, pins, pe.pd,
                           profile::tmote_sky(),
                           pe.app.full_rate_events_per_sec() * 4.0);
  prob.net_budget = 1e18;
  prob.ram_budget = kNoResourceBudget;
  prob.rom_budget = kNoResourceBudget;

  std::printf("EEG app (1412 ops) at 4x rate on TMoteSky, CPU-bound, "
              "<=400 B&B nodes:\n");
  std::printf("%-36s %10s %12s %12s %10s %12s\n", "configuration", "vars",
              "solve (s)", "objective", "bnb nodes", "lp iters");
  struct Cfg {
    const char* name;
    bool prep;
    Formulation form;
    bool warm;
  };
  const Cfg cfgs[] = {
      {"restricted + preprocess + warm", true, Formulation::kRestricted, true},
      {"restricted + preprocess, no warm", true, Formulation::kRestricted, false},
      {"restricted, no preprocess", false, Formulation::kRestricted, true},
      {"general + preprocess", true, Formulation::kGeneral, true},
  };
  for (const Cfg& c : cfgs) {
    PartitionOptions opts;
    opts.preprocess = c.prep;
    opts.formulation = c.form;
    opts.warm_start = c.warm;
    if (!c.warm) {
      // Seed solver for the no-warm rows: cold per-node LPs and no
      // reduced-cost fixing.
      opts.mip.warm_lp = false;
      opts.mip.reduced_cost_fixing = false;
    }
    opts.mip.time_limit_s = 60.0;  // cap pathological configurations
    opts.mip.max_nodes = 400;      // equal search breadth across configs
    Stopwatch sw;
    const auto r = solve_partition(prob, opts);
    const double t = sw.elapsed_seconds();
    const std::size_t vars =
        (c.prep ? r.prep.vertices_after : prob.num_vertices()) +
        (c.form == Formulation::kGeneral
             ? 2 * (c.prep ? r.prep.edges_after : prob.num_edges())
             : 0);
    std::printf("%-36s %10zu %12.3f %12.1f %10zu %12zu\n", c.name, vars, t,
                r.feasible ? r.objective : -1.0, r.solver.nodes_explored,
                r.solver.lp_iterations);
  }

  // --- 3: ILP vs greedy on random layered DAGs.
  std::printf("\nILP vs greedy heuristic on random layered DAGs "
              "(16 instances):\n");
  std::size_t greedy_optimal = 0, greedy_feasible = 0;
  double worst_gap = 0.0;
  for (std::uint32_t seed = 1; seed <= 16; ++seed) {
    const auto p = random_layered(seed, 4, 4);
    const auto ilp = solve_partition(p);
    const auto greedy = greedy_partition(p);
    if (!ilp.feasible) continue;
    if (greedy.feasible) {
      ++greedy_feasible;
      const double gap =
          (greedy.objective - ilp.objective) / (1e-9 + ilp.objective);
      worst_gap = std::max(worst_gap, gap);
      if (gap < 1e-6) ++greedy_optimal;
    }
  }
  std::printf("greedy feasible on %zu, optimal on %zu; worst optimality "
              "gap %.1f%%\n",
              greedy_feasible, greedy_optimal, 100.0 * worst_gap);
  std::printf("\n(§4: heuristics are a poor fit — only the ILP is "
              "reliably optimal)\n");
  return 0;
}
