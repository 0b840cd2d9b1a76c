#include "partition/partitioner.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "partition/closure.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace wishbone::partition {

namespace {

/// Counts each solve_partition call once, by the path that answered it.
void count_solve(bool by_closure) {
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter* const closure =
      reg.counter("wishbone_partition_solves", {{"path", "closure"}});
  static obs::Counter* const bnb =
      reg.counter("wishbone_partition_solves", {{"path", "bnb"}});
  (by_closure ? closure : bnb)->inc();
}

/// The closure fast path. The restricted model's min-weight closure is
/// its optimum without the budget rows, so when it also fits every
/// budget it is the ILP's optimum. Returns it as branch and bound
/// reports a solve proved at the root, with no node and no LP; nullopt
/// when the closure does not apply (general formulation, contradictory
/// pins) or breaks a budget.
std::optional<ilp::MipResult> solve_by_closure(const PartitionProblem& work,
                                               Formulation form) {
  if (form != Formulation::kRestricted) return std::nullopt;
  const util::Stopwatch clock;
  const std::optional<Closure> c = min_weight_closure(work);
  if (!c || !evaluate_assignment(work, c->sides).feasible(work)) {
    return std::nullopt;
  }
  ilp::MipResult r;
  r.status = ilp::SolveStatus::kOptimal;
  r.has_incumbent = true;
  r.objective = r.best_bound = c->objective;
  r.x.resize(c->sides.size());
  for (std::size_t v = 0; v < r.x.size(); ++v) {
    r.x[v] = c->sides[v] == Side::kNode ? 1.0 : 0.0;
  }
  r.time_total = clock.elapsed_seconds();
  r.time_to_first_incumbent = r.time_to_best_incumbent = r.time_total;
  r.incumbents.push_back({r.time_total, r.objective, 0});
  return r;
}

/// Branch and bound on the ILP of `work`.
ilp::MipResult solve_ilp(const PartitionProblem& work,
                         const PartitionOptions& opts) {
  const ilp::LinearProgram model = build_ilp(work, opts.formulation);

  ilp::MipOptions mip = opts.mip;
  if (opts.warm_start && opts.formulation == Formulation::kRestricted) {
    // Threshold-round every node's LP relaxation into a feasible cut
    // inside branch and bound (no extra LP solve needed: the relaxation
    // is already computed there). The root basis that produced the
    // rounded incumbent stays live in the solver's shared SimplexState,
    // so every subsequent node LP warm-starts from it — the rounding
    // warm start and the basis warm start ride the same relaxation. A
    // threshold sweep costs O(V+E) per distinct f value — noise next to
    // the node LP — and the EEG instances' deep nodes yield cuts the
    // root relaxation never suggests. Better incumbents also feed the
    // solver's reduced-cost fixing, which needs a tight cutoff to fire.
    mip.rounding_hook =
        [&work](const std::vector<double>& lp_x)
        -> std::optional<std::vector<double>> {
      return threshold_round(work, lp_x);
    };
  }
  // opts.warm_start only governs the rounding hook; the solver knobs
  // (warm_lp, reduced_cost_fixing, warm_basis) stay whatever
  // the caller put in opts.mip — ablations wanting the full seed
  // solver set those fields explicitly.
  //
  // Callers chaining related solves (rate search, repeated sweeps) pick
  // the final basis up from the result's final_basis and thread it into
  // the next solve's opts.mip.warm_basis; under the LU engine the load
  // costs one sparse refactorization instead of an O(m^3) Gauss-Jordan,
  // and warm_basis_loaded reports whether the inherit took. A solve the
  // closure answers leaves final_basis empty, and those callers keep
  // the last basis they had.
  return ilp::BranchAndBound{}.solve(model, mip);
}

}  // namespace

PartitionResult solve_partition(const PartitionProblem& p,
                                const PartitionOptions& opts) {
  PartitionResult res;

  // The solver works on the condensed problem, or on `p` itself when
  // preprocessing is off.
  PartitionProblem condensed;
  if (opts.preprocess) {
    condensed = preprocess(p, &res.prep);
  } else {
    res.prep.vertices_before = res.prep.vertices_after = p.num_vertices();
    res.prep.edges_before = res.prep.edges_after = p.num_edges();
  }
  const PartitionProblem& work = opts.preprocess ? condensed : p;

  std::optional<ilp::MipResult> closure =
      solve_by_closure(work, opts.formulation);
  count_solve(closure.has_value());
  res.solver = closure ? std::move(*closure) : solve_ilp(work, opts);
  if (!res.solver.has_incumbent) {
    res.feasible = false;
    return res;
  }

  const std::vector<Side> work_sides = decode_solution(work, res.solver.x);
  const AssignmentEval ev = evaluate_assignment(work, work_sides);
  WB_ASSERT_MSG(ev.respects_pins, "solver produced a pin-violating cut");
  res.feasible = true;
  res.cpu_used = ev.cpu;
  res.net_used = ev.net;
  res.ram_used = ev.ram;
  res.rom_used = ev.rom;
  res.objective = objective_of(work, ev);

  // Expand condensed vertices back to the caller's problem vertices.
  // Each vertex stands for op_ids(work, i): original operator ids for a
  // problem built by make_problem, the caller's vertex ids for a
  // hand-built one.
  std::size_t max_op = 0;
  for (std::size_t v = 0; v < p.num_vertices(); ++v) {
    for (OperatorId op : op_ids(p, v)) max_op = std::max(max_op, op + 1);
  }
  const std::vector<Side> per_op =
      expand_assignment(work, work_sides, max_op);
  // Map back to p's vertex order via each vertex's first op id.
  res.sides.resize(p.num_vertices());
  for (std::size_t v = 0; v < p.num_vertices(); ++v) {
    res.sides[v] = per_op[op_ids(p, v).front()];
  }
  res.node_partition_size = static_cast<std::size_t>(
      std::count(res.sides.begin(), res.sides.end(), Side::kNode));
  return res;
}

PartitionResult partition_graph(const graph::Graph& g,
                                const profile::ProfileData& pd,
                                const profile::PlatformModel& plat,
                                double events_per_sec, graph::Mode mode,
                                const PartitionOptions& opts) {
  const graph::PinAnalysis pins = graph::analyze_pins(g, mode);
  const PartitionProblem p =
      make_problem(g, pins, pd, plat, events_per_sec);
  PartitionResult res = solve_partition(p, opts);
  if (res.feasible) {
    res.sides = expand_assignment(p, res.sides, g.num_operators());
    res.node_partition_size = static_cast<std::size_t>(
        std::count(res.sides.begin(), res.sides.end(), Side::kNode));
  }
  return res;
}

}  // namespace wishbone::partition
