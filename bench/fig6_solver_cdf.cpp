// Fig. 6 — CDF of the ILP solver runtime on the full 22-channel EEG
// application (1412 operators), invoked across a linear sweep of input
// rates from "everything fits easily" to "nothing fits". Two curves:
// time to *discover* the optimal solution and time to *prove* it
// optimal (search exhausted).
//
// The paper ran lp_solve 2100 times on a 3.2 GHz Xeon: discovery was
// under 90 s worst case (95% under 10 s); proving took up to ~12 min.
// Our solver and hardware differ, so absolute times shift; the shape —
// discovery much faster than proof, with a heavy tail — is the target.
// The sweep size is configurable (argv[1], default 120) so the bench
// finishes in minutes rather than hours.
//
// Usage: bench_fig6_solver_cdf [--threads=K]
//                              [runs] [per_solve_limit_s] [max_nodes]
//   --threads  branch-and-bound workers per solve (default 1; 0 =
//              hardware concurrency). The determinism contract holds
//              at any K — identical objectives and proof outcomes —
//              so the sweep's per-point objective record doubles as a
//              cross-thread-count consistency check. Per-point steal /
//              snapshot-reload / idle telemetry lands in the JSON.
//   max_nodes  per-solve B&B node budget, 0 = unlimited (default). A
//              finite budget makes solver A/B comparisons well-defined
//              on the censored middle of the sweep: both solvers then
//              do the same breadth of search and the LP-iteration and
//              wall-clock totals measure work, not throughput-at-cap.
// Node LPs warm-start from the previous node's basis and re-enter by
// the dual simplex; per-run re-entry telemetry (dual re-entries, phase-1
// re-entries and fallbacks) lands in the JSON.
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "graph/pinning.hpp"
#include "partition/partitioner.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace wishbone;
  // Split the flags off the positional arguments.
  std::size_t threads = 1;
  std::vector<const char*> pos;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      threads = static_cast<std::size_t>(std::atoll(argv[a] + 10));
    } else if (std::strncmp(argv[a], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s' (expected --threads=)\n",
                   argv[a]);
      return 1;
    } else {
      pos.push_back(argv[a]);
    }
  }
  const std::size_t runs =
      pos.size() > 0 ? static_cast<std::size_t>(std::atoi(pos[0])) : 16;
  // Per-solve wall-clock cap. The 22 nearly-identical EEG channels make
  // *proving* optimality combinatorially symmetric — the same effect
  // behind the paper's 12-minute lp_solve tails — so prove times are
  // right-censored at this limit and the censored fraction is reported.
  const double per_solve_limit_s =
      pos.size() > 1 ? std::atof(pos[1]) : 20.0;
  const std::size_t max_nodes =
      pos.size() > 2 ? static_cast<std::size_t>(std::atoll(pos[2])) : 0;
  if (pos.size() > 3) {
    std::fprintf(stderr, "unexpected argument '%s' (expected at most runs, "
                         "per_solve_limit_s, max_nodes)\n",
                 pos[3]);
    return 1;
  }
  if (runs == 0) {
    std::fprintf(stderr, "runs must be >= 1\n");
    return 1;
  }

  bench::header("Figure 6",
                "solver runtime CDF, full EEG app (1412 operators)");
  bench::paper_note(
      "2100 lp_solve runs: optimal discovered <90 s worst case, 95% "
      "<10 s; proving optimality up to ~12 min — discovery << proof");

  auto pe = bench::profiled_eeg(apps::EegConfig{}, 3);
  std::printf("graph: %zu operators\n", pe.app.g.num_operators());
  const auto pins = graph::analyze_pins(pe.app.g, graph::Mode::kPermissive);
  const double base = pe.app.full_rate_events_per_sec();
  const auto plat = profile::tmote_sky();

  std::vector<double> discover, prove, objectives, proved, point_nodes,
      point_iters, point_wall, point_refacs, point_etas, point_steals,
      point_reloads, point_idle, point_dual_reentries, point_fallbacks;
  std::size_t feasible = 0;
  std::size_t censored = 0;
  ilp::WorkerTelemetry total;  // summed over the sweep
  std::size_t threads_used = threads;
  double total_wall_s = 0.0;
  for (std::size_t i = 0; i < runs; ++i) {
    // Linear rate sweep over everything-fits ... nothing-fits. Like the
    // paper's 2100-invocation experiment, the objective minimizes
    // network bandwidth subject to CPU capacity only (alpha=0, beta=1,
    // "allow the CPU to be fully utilized"); the other budgets are
    // lifted so every instance is a nontrivial CPU-bound knapsack.
    const double mult =
        0.05 + 30.0 * static_cast<double>(i) / static_cast<double>(runs);
    auto prob = partition::make_problem(pe.app.g, pins, pe.pd, plat,
                                        base * mult);
    prob.net_budget = 1e18;
    prob.ram_budget = partition::kNoResourceBudget;
    prob.rom_budget = partition::kNoResourceBudget;
    partition::PartitionOptions opts;
    opts.mip.time_limit_s = per_solve_limit_s;
    opts.mip.threads = threads;
    if (max_nodes > 0) opts.mip.max_nodes = max_nodes;
    const auto r = partition::solve_partition(prob, opts);
    const ilp::WorkerTelemetry& t = r.solver.total;
    total += t;
    point_wall.push_back(r.solver.time_total);
    point_refacs.push_back(static_cast<double>(t.basis_refactorizations));
    point_etas.push_back(static_cast<double>(t.eta_updates));
    point_steals.push_back(static_cast<double>(t.steals));
    point_reloads.push_back(static_cast<double>(t.snapshot_reloads));
    point_idle.push_back(t.idle_s);
    point_dual_reentries.push_back(
        static_cast<double>(t.simplex.dual_reentries));
    point_fallbacks.push_back(static_cast<double>(t.simplex.phase1_fallbacks));
    threads_used = r.solver.threads_used;  // threads=0 resolved
    total_wall_s += r.solver.time_total;
    // "Proved" = the instance was fully resolved: optimality shown or
    // infeasibility established. 0 marks a time/node-limit censoring.
    proved.push_back(r.solver.status == ilp::SolveStatus::kOptimal ||
                             r.solver.status == ilp::SolveStatus::kInfeasible
                         ? 1.0
                         : 0.0);
    point_nodes.push_back(static_cast<double>(r.solver.nodes_explored));
    point_iters.push_back(static_cast<double>(r.solver.lp_iterations));
    if (!r.solver.has_incumbent) {
      objectives.push_back(-1.0);
      continue;
    }
    objectives.push_back(r.solver.objective);
    ++feasible;
    // The rounding hook discovers an incumbent at the root; time_to_best
    // is the moment the final optimum appeared, time_total includes the
    // proof (or runs to the cap).
    discover.push_back(r.solver.time_to_best_incumbent);
    if (r.solver.status == ilp::SolveStatus::kOptimal) {
      prove.push_back(r.solver.time_total);
    } else {
      ++censored;
    }
  }

  std::printf("feasible solves: %zu of %zu; proofs censored at %.0f s: "
              "%zu\n\n",
              feasible, runs, per_solve_limit_s, censored);
  std::printf("%12s %16s %16s\n", "percentile", "discover (s)",
              "prove (s, uncensored)");
  for (double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    std::printf("%12.0f %16.4f %16.4f\n", p,
                util::percentile(discover, p),
                prove.empty() ? -1.0 : util::percentile(prove, p));
  }
  if (prove.size() * 2 >= feasible && !prove.empty()) {
    std::printf("\nshape check: median discover / median prove = %.3f "
                "(paper: << 1)\n",
                util::percentile(discover, 50.0) /
                    util::percentile(prove, 50.0));
  } else {
    std::printf("\nshape check: median discover %.3f s while most "
                "proofs exceed the cap — discovery << proof, as in the "
                "paper\n",
                discover.empty() ? -1.0
                                 : util::percentile(discover, 50.0));
  }
  std::printf("censored instances prove slower than %.0f s each — the "
              "paper's own proof tail ran to ~12 minutes\n",
              per_solve_limit_s);
  std::printf("\nsolver totals (%zu thread%s): %zu B&B nodes, %zu LP "
              "iterations, %zu reduced-cost fixings, %.2f s wall\n",
              threads_used, threads_used == 1 ? "" : "s",
              total.nodes_explored, total.lp_iterations,
              total.vars_fixed_by_reduced_cost, total_wall_s);
  std::printf("basis engine: %zu refactorizations, %zu eta updates, "
              "eta-file peak %zu\n",
              total.basis_refactorizations, total.eta_updates,
              total.eta_len_peak);
  std::printf("re-entry: %zu dual re-entries, %zu phase-1 re-entries, "
              "%zu phase-1 fallbacks; pivots %zu primal / %zu dual\n",
              total.simplex.dual_reentries, total.simplex.phase1_reentries,
              total.simplex.phase1_fallbacks, total.simplex.primal_pivots,
              total.simplex.dual_pivots);
  if (threads_used > 1) {
    std::printf("parallel search: %zu steals, %zu snapshot reloads, "
                "%.2f s summed worker idle\n",
                total.steals, total.snapshot_reloads, total.idle_s);
  }

  // Machine-readable record so the solver's perf trajectory is tracked
  // across PRs (nodes / LP iterations / discover / prove / objectives).
  bench::Json j;
  j.set("bench", std::string("fig6_solver_cdf"));
  j.set("threads", threads_used);
  j.set("runs", runs);
  j.set("per_solve_limit_s", per_solve_limit_s);
  j.set("max_nodes_per_solve", max_nodes);
  j.set("feasible", feasible);
  j.set("censored_proofs", censored);
  j.set("total_nodes", total.nodes_explored);
  j.set("total_lp_iterations", total.lp_iterations);
  j.set("total_rc_fixings", total.vars_fixed_by_reduced_cost);
  j.set("total_basis_refactorizations", total.basis_refactorizations);
  j.set("total_eta_updates", total.eta_updates);
  j.set("eta_len_peak", total.eta_len_peak);
  j.set("total_dual_reentries", total.simplex.dual_reentries);
  j.set("total_phase1_reentries", total.simplex.phase1_reentries);
  j.set("total_phase1_fallbacks", total.simplex.phase1_fallbacks);
  j.set("total_primal_pivots", total.simplex.primal_pivots);
  j.set("total_dual_pivots", total.simplex.dual_pivots);
  j.set("total_steals", total.steals);
  j.set("total_snapshot_reloads", total.snapshot_reloads);
  j.set("total_idle_s", total.idle_s);
  j.set("total_wall_s", total_wall_s);
  j.set("discover_p50_s",
        discover.empty() ? -1.0 : util::percentile(discover, 50.0));
  j.set("discover_p95_s",
        discover.empty() ? -1.0 : util::percentile(discover, 95.0));
  j.set("discover_max_s",
        discover.empty() ? -1.0 : util::percentile(discover, 100.0));
  j.set("prove_p50_s", prove.empty() ? -1.0 : util::percentile(prove, 50.0));
  j.set("prove_max_s", prove.empty() ? -1.0 : util::percentile(prove, 100.0));
  j.set_array("objectives", objectives);
  j.set_array("proved", proved);
  j.set_array("nodes_per_point", point_nodes);
  j.set_array("lp_iterations_per_point", point_iters);
  j.set_array("wall_s_per_point", point_wall);
  j.set_array("refactorizations_per_point", point_refacs);
  j.set_array("eta_updates_per_point", point_etas);
  j.set_array("steals_per_point", point_steals);
  j.set_array("snapshot_reloads_per_point", point_reloads);
  j.set_array("idle_s_per_point", point_idle);
  j.set_array("dual_reentries_per_point", point_dual_reentries);
  j.set_array("phase1_fallbacks_per_point", point_fallbacks);
  j.write("BENCH_fig6.json");
  return 0;
}
