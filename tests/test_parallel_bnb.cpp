// Serial-vs-parallel differential testing of the branch-and-bound
// engine: the N = 1 inline specialization is the oracle, and runs at
// threads ∈ {2, 4, 8} must reproduce its objectives and proof outcomes
// exactly (node and LP-iteration *counts* may differ — the contract is
// on answers, not on the walk). Instances come from the shared
// generators in lp_generators.hpp, the same families the dense-vs-LU
// harness uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "lp_generators.hpp"

using namespace wishbone::ilp;

namespace {

using testgen::diff_trials;
using testgen::gen_market_split;
using testgen::gen_partition_shaped;

MipOptions with_threads(std::size_t threads) {
  MipOptions o;
  o.threads = threads;
  // Short eta file: the stolen-node snapshot reloads then exercise the
  // full refactorization cycle, like the dense-vs-LU harness does.
  o.lp.refactor_interval = 16;
  return o;
}

void expect_same_answer(const MipResult& serial, const MipResult& parallel,
                        const LinearProgram& lp, const std::string& label) {
  ASSERT_EQ(serial.status, parallel.status) << label;
  ASSERT_EQ(serial.has_incumbent, parallel.has_incumbent) << label;
  if (!serial.has_incumbent) return;
  const double tol = 1e-6 * std::max(1.0, std::fabs(serial.objective));
  EXPECT_NEAR(serial.objective, parallel.objective, tol) << label;
  if (serial.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(serial.best_bound, parallel.best_bound, tol) << label;
  }
  EXPECT_LE(lp.max_violation(parallel.x), 1e-5)
      << label << ": parallel solve returned an infeasible incumbent";
}

void check_telemetry_consistency(const MipResult& r, std::size_t threads,
                                 const std::string& label) {
  EXPECT_EQ(r.threads_used, threads) << label;
  ASSERT_EQ(r.workers.size(), threads) << label;
  std::size_t nodes = 0, iters = 0, steals = 0, reloads = 0, fixed = 0;
  for (const WorkerTelemetry& w : r.workers) {
    nodes += w.nodes_explored;
    iters += w.lp_iterations;
    steals += w.steals;
    reloads += w.snapshot_reloads;
    fixed += w.vars_fixed_by_reduced_cost;
  }
  EXPECT_EQ(nodes, r.nodes_explored) << label;
  EXPECT_EQ(iters, r.lp_iterations) << label;
  EXPECT_EQ(steals, r.total.steals) << label;
  EXPECT_EQ(reloads, r.total.snapshot_reloads) << label;
  EXPECT_EQ(fixed, r.total.vars_fixed_by_reduced_cost) << label;
  EXPECT_LE(reloads, steals) << label
                             << ": reloads only ever happen on steals";
}

}  // namespace

TEST(ParallelBnb, SerialIsBitReproducible) {
  // threads == 1 runs inline with a deterministic push/pop sequence
  // (ties resolve by the heap's deterministic sift order): two runs
  // must take the identical walk.
  for (std::uint32_t seed = 9100; seed < 9110; ++seed) {
    const LinearProgram lp = gen_partition_shaped(seed, /*integral=*/true);
    const MipResult a = BranchAndBound().solve(lp, with_threads(1));
    const MipResult b = BranchAndBound().solve(lp, with_threads(1));
    ASSERT_EQ(a.status, b.status) << "seed=" << seed;
    EXPECT_EQ(a.nodes_explored, b.nodes_explored) << "seed=" << seed;
    EXPECT_EQ(a.lp_iterations, b.lp_iterations) << "seed=" << seed;
    EXPECT_EQ(a.objective, b.objective) << "seed=" << seed;  // bitwise
    EXPECT_EQ(a.best_bound, b.best_bound) << "seed=" << seed;
    EXPECT_EQ(a.incumbents.size(), b.incumbents.size()) << "seed=" << seed;
    EXPECT_EQ(a.total.steals, 0u);
    EXPECT_EQ(a.total.snapshot_reloads, 0u);
  }
}

TEST(ParallelBnb, MatchesSerialOnPartitionMips) {
  const int trials = std::max(diff_trials() / 16, 12);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 9000u + static_cast<std::uint32_t>(t);
    const LinearProgram lp = gen_partition_shaped(seed, /*integral=*/true);
    const MipResult serial = BranchAndBound().solve(lp, with_threads(1));
    for (std::size_t threads : {2u, 4u, 8u}) {
      const std::string label =
          "seed=" + std::to_string(seed) +
          " threads=" + std::to_string(threads);
      const MipResult par = BranchAndBound().solve(lp, with_threads(threads));
      expect_same_answer(serial, par, lp, label);
      check_telemetry_consistency(par, threads, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelBnb, MatchesSerialOnMarketSplitMips) {
  // The partition-shaped family above proves out in a handful of nodes;
  // market splits force trees of hundreds to thousands, so the workers
  // genuinely interleave (steals, racing incumbents, distant reloads).
  const int trials = std::max(diff_trials() / 40, 6);
  for (int t = 0; t < trials; ++t) {
    const std::uint32_t seed = 9200u + static_cast<std::uint32_t>(t);
    const LinearProgram lp = gen_market_split(seed);
    const MipResult serial = BranchAndBound().solve(lp, with_threads(1));
    for (std::size_t threads : {2u, 8u}) {
      const std::string label =
          "market seed=" + std::to_string(seed) +
          " threads=" + std::to_string(threads);
      const MipResult par = BranchAndBound().solve(lp, with_threads(threads));
      expect_same_answer(serial, par, lp, label);
      check_telemetry_consistency(par, threads, label);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelBnb, ColdLpModeMatchesSerial) {
  // warm_lp = false (the seed-solver ablation) must stay correct in
  // parallel too: no snapshots ride along, every node LP cold-starts.
  for (std::uint32_t seed = 9500; seed < 9506; ++seed) {
    const LinearProgram lp = gen_partition_shaped(seed, /*integral=*/true);
    MipOptions serial_opts = with_threads(1);
    serial_opts.warm_lp = false;
    MipOptions par_opts = with_threads(4);
    par_opts.warm_lp = false;
    const MipResult serial = BranchAndBound().solve(lp, serial_opts);
    const MipResult par = BranchAndBound().solve(lp, par_opts);
    expect_same_answer(serial, par, lp,
                       "cold seed=" + std::to_string(seed));
    EXPECT_EQ(par.total.snapshot_reloads, 0u) << "no snapshots in cold mode";
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ParallelBnb, IncumbentStressFromAllWorkers) {
  // Hammer the atomic incumbent: a rounding hook that fires at *every*
  // node from all 8 workers at once, on an instance with a tree deep
  // enough that every worker holds work. The record must stay coherent
  // under the races: timeline strictly improving, final objective the
  // serial optimum, feasible incumbent.
  std::optional<LinearProgram> chosen;
  MipResult serial;
  for (std::uint32_t seed = 9700; seed < 9740; ++seed) {
    LinearProgram lp = gen_market_split(seed);
    const MipResult r = BranchAndBound().solve(lp, with_threads(1));
    if (r.status == SolveStatus::kOptimal && r.nodes_explored >= 100) {
      chosen = std::move(lp);
      serial = r;
      break;
    }
  }
  ASSERT_TRUE(chosen.has_value())
      << "no generated instance produced a tree of >= 100 nodes";

  MipOptions opts = with_threads(8);
  opts.rounding_hook = [](const std::vector<double>& x)
      -> std::optional<std::vector<double>> {
    // Pure (thread-safe) hook: naive rounding; the solver re-checks
    // feasibility and improvement before installing. The short sleep
    // forces real interleaving even on a single hardware core — the
    // holder of the node blocks mid-process, so the other workers get
    // scheduled and race it for the incumbent.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::vector<double> r(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) r[i] = std::round(x[i]);
    return r;
  };
  const MipResult par = BranchAndBound().solve(*chosen, opts);
  expect_same_answer(serial, par, *chosen, "incumbent stress");
  check_telemetry_consistency(par, 8, "incumbent stress");
  ASSERT_FALSE(par.incumbents.empty());
  for (std::size_t i = 1; i < par.incumbents.size(); ++i) {
    EXPECT_LT(par.incumbents[i].objective, par.incumbents[i - 1].objective)
        << "incumbent timeline must be strictly improving";
    EXPECT_GE(par.incumbents[i].time_s, par.incumbents[i - 1].time_s)
        << "incumbent timeline must be time-ordered";
  }
  EXPECT_EQ(par.incumbents.back().objective, par.objective);
}

TEST(ParallelBnb, StealsAndSnapshotReloadsHappen) {
  // On a nontrivial tree with 4 workers, the sharded pool must
  // actually shed work: without steals the other three workers would
  // idle forever (the root expands in shard 0 only).
  std::optional<LinearProgram> chosen;
  for (std::uint32_t seed = 9800; seed < 9840; ++seed) {
    LinearProgram lp = gen_market_split(seed);
    const MipResult r = BranchAndBound().solve(lp, with_threads(1));
    if (r.status == SolveStatus::kOptimal && r.nodes_explored >= 200) {
      chosen = std::move(lp);
      break;
    }
  }
  ASSERT_TRUE(chosen.has_value());
  MipOptions opts = with_threads(4);
  // Force interleaving on any core count: every node briefly blocks
  // its worker, so the siblings it just pushed are up for grabs while
  // the others run — steals (and their snapshot reloads) must occur.
  opts.rounding_hook = [](const std::vector<double>&)
      -> std::optional<std::vector<double>> {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return std::nullopt;
  };
  const MipResult par = BranchAndBound().solve(*chosen, opts);
  EXPECT_GE(par.total.steals, 1u) << "no worker ever stole — the pool "
                                     "sharding is not shedding work";
  EXPECT_GE(par.total.snapshot_reloads, 1u)
      << "stolen nodes never reloaded their basis snapshot";
  ASSERT_EQ(par.workers.size(), 4u);
  std::size_t workers_that_worked = 0;
  for (const WorkerTelemetry& w : par.workers) {
    if (w.nodes_explored > 0) ++workers_that_worked;
  }
  EXPECT_GE(workers_that_worked, 2u)
      << "work never spread beyond one worker";
}

TEST(ParallelBnb, ThreadsZeroResolvesToHardware) {
  const LinearProgram lp = gen_partition_shaped(9900, /*integral=*/true);
  const MipResult serial = BranchAndBound().solve(lp, with_threads(1));
  const MipResult par = BranchAndBound().solve(lp, with_threads(0));
  EXPECT_GE(par.threads_used, 1u);
  expect_same_answer(serial, par, lp, "threads=0");
}

namespace {

/// `lp` with the first term of row 0 dropped: the same shape (variable
/// and row counts) but another constraint structure.
LinearProgram restructured(const LinearProgram& lp) {
  LinearProgram out;
  for (int v = 0; v < lp.num_variables(); ++v) {
    (void)out.add_variable(lp.variable_name(v), lp.lower(v), lp.upper(v),
                           lp.objective_coeff(v), lp.is_integer(v));
  }
  for (std::size_t r = 0; r < lp.constraints().size(); ++r) {
    Constraint c = lp.constraints()[r];
    if (r == 0) c.terms.erase(c.terms.begin());
    out.add_constraint(std::move(c));
  }
  return out;
}

}  // namespace

TEST(ParallelBnb, StructureRejectedWarmBasisColdStartsEveryWorker) {
  // A donor basis from a structurally different model of the same
  // shape: every worker's load_basis turns it away, and the solve gives
  // the cold solve's answer at any thread count.
  const LinearProgram lp = gen_partition_shaped(9950, /*integral=*/true);
  const LinearProgram other = restructured(lp);
  ASSERT_NE(other.structure_hash(), lp.structure_hash());
  const MipResult donor = BranchAndBound().solve(other, with_threads(1));
  ASSERT_FALSE(donor.final_basis.empty());
  const MipResult cold = BranchAndBound().solve(lp, with_threads(1));
  for (std::size_t threads : {1u, 2u, 4u}) {
    const std::string label = "threads=" + std::to_string(threads);
    MipOptions opts = with_threads(threads);
    opts.warm_basis = donor.final_basis;
    const MipResult r = BranchAndBound().solve(lp, opts);
    EXPECT_TRUE(r.warm_basis_rejected) << label;
    EXPECT_EQ(r.warm_basis_reject_reason, BasisRejectReason::kStructure)
        << label;
    EXPECT_FALSE(r.warm_basis_loaded) << label;
    expect_same_answer(cold, r, lp, "rejected basis " + label);
  }
}

TEST(ParallelBnb, WarmBasisLoadsIntoEveryWorker) {
  // A basis inherited from a previous structurally identical solve
  // must load (and report as loaded) regardless of thread count.
  const LinearProgram lp = gen_partition_shaped(9950, /*integral=*/true);
  const MipResult first = BranchAndBound().solve(lp, with_threads(1));
  ASSERT_FALSE(first.final_basis.empty());
  for (std::size_t threads : {1u, 4u}) {
    MipOptions opts = with_threads(threads);
    opts.warm_basis = first.final_basis;
    const MipResult r = BranchAndBound().solve(lp, opts);
    EXPECT_TRUE(r.warm_basis_loaded) << "threads=" << threads;
    expect_same_answer(first, r, lp,
                       "warm basis threads=" + std::to_string(threads));
  }
}
