// Best-first branch and bound: the tree search behind
// BranchAndBound::solve. One SimplexState serves every node LP, one heap
// holds the open nodes, and the walk is a plain loop on the calling
// thread:
//
//  1. An empty heap means the tree is exhausted: the run is proved
//     (optimal, or infeasible when no incumbent was found).
//  2. Otherwise a spent time or node budget censors the run.
//  3. Otherwise the best node is popped and pruned against the
//     incumbent before its LP is paid for.
//  4. A node counts toward MipOptions::max_nodes once it reaches its LP
//     solve, whatever that LP returns.
//  5. A numerical LP failure ends the run as censored.
//
// The heap orders by bound, then depth; remaining ties resolve by the
// heap's deterministic sift order — NOT by creation index, a
// deliberate, measured choice (see NodeCompare below). The push/pop
// sequence is itself deterministic, so every run of the same model
// takes the identical walk (BranchAndBound.SerialWalkIsPinned pins it).
#include "ilp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace wishbone::ilp {

namespace {

/// Integrality tolerance on LP solutions.
constexpr double kIntTol = 1e-6;
/// Pruning gap: a node is pruned when its bound comes within
/// max(kGapAbs, kGapRel * |incumbent|) of the incumbent (an
/// lp_solve-style MIP gap; keeps proof times sane on instances with
/// many near-optimal cuts).
constexpr double kGapAbs = 1e-9;
constexpr double kGapRel = 1e-6;

double prune_margin(double incumbent) {
  return std::max(kGapAbs, kGapRel * std::fabs(incumbent));
}

/// One bound change: variable `var` restricted to [lo, up].
struct BoundDelta {
  int var;
  double lo;
  double up;
};

/// One link in a node's chain of bound changes back to the root: the
/// branching delta plus any reduced-cost fixings discovered alongside
/// it. Ancestry is shared (shared_ptr spine), so a node costs one link
/// instead of two n-sized bound vectors.
struct DeltaLink {
  std::shared_ptr<const DeltaLink> parent;
  std::vector<BoundDelta> deltas;
};

struct Node {
  std::shared_ptr<const DeltaLink> chain;  ///< null = root bounds
  double parent_bound = -kInf;  ///< LP bound of the parent (for pruning)
  std::size_t depth = 0;
};

/// std-heap "less": true when `a` pops *after* `b`. Best-first orders
/// by bound, then depth (deeper first, diving toward incumbents);
/// remaining ties resolve by the heap's deterministic sift order, so
/// walks are bit-reproducible run to run.
///
/// A *total* order on (bound, depth, creation index) was measured and
/// rejected: the Fig. 6 EEG instances are so degenerate that most of
/// the tree ties on (bound, depth), and every pure tie policy loses badly
/// against the heap's mixed order on the 16-point node-budget sweep —
/// oldest-first 617k LP iterations, dive-preferred-first 676k,
/// splitmix-shuffled 905k, newest-first 1.26M, vs 556k for heap-order
/// ties (which reproduces the PR 2 snapshot bit-for-bit).
struct NodeCompare {
  bool operator()(const Node& a, const Node& b) const {
    if (a.parent_bound != b.parent_bound) {
      return a.parent_bound > b.parent_bound;
    }
    return a.depth < b.depth;
  }
};

/// Index of the most fractional integer variable, or -1 if integral.
int pick_branch_var(const LinearProgram& lp, const std::vector<double>& x,
                    double tol) {
  int best = -1;
  double best_dist = tol;
  for (int v = 0; v < lp.num_variables(); ++v) {
    if (!lp.is_integer(v)) continue;
    const double frac = x[v] - std::floor(x[v]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = v;
    }
  }
  return best;
}

class Search {
 public:
  Search(const LinearProgram& lp, const MipOptions& opts)
      : lp_(lp), opts_(opts), n_(lp.num_variables()), state_(lp, opts.lp) {}

  MipResult run() {
    MipResult res;

    // Span around the whole search; its context parents the per-node
    // and basis spans. Unsampled = two branches.
    obs::Span search_span =
        obs::Tracer::global().span("bnb.search", opts_.trace);
    search_ctx_ = search_span.context();

    if (opts_.warm_basis && !opts_.warm_basis->empty()) {
      // A basis of another shape or structure is turned away in O(1),
      // before any factorization.
      obs::Span load_span =
          obs::Tracer::global().span("basis.load", search_ctx_);
      res.warm_basis_reject_reason = state_.load_basis(*opts_.warm_basis);
      res.warm_basis_loaded =
          res.warm_basis_reject_reason == BasisRejectReason::kNone;
      res.warm_basis_rejected =
          res.warm_basis_reject_reason == BasisRejectReason::kShape ||
          res.warm_basis_reject_reason == BasisRejectReason::kStructure;
    }

    push(Node{nullptr, -kInf, 0});
    bool censored = false;
    while (!heap_.empty()) {
      if (clock_.elapsed_seconds() > opts_.time_limit_s ||
          tel_.nodes_explored >= opts_.max_nodes) {
        censored = true;
        break;
      }
      std::pop_heap(heap_.begin(), heap_.end(), NodeCompare{});
      Node nd = std::move(heap_.back());
      heap_.pop_back();
      if (!process(nd)) {
        censored = true;
        break;
      }
    }

    search_span.finish();

    res.time_total = clock_.elapsed_seconds();
    const BasisEngineStats& bs = state_.basis_stats();
    tel_.basis_refactorizations = bs.refactorizations;
    tel_.eta_updates = bs.eta_updates;
    tel_.eta_len_peak = bs.eta_len_peak;
    tel_.simplex = state_.telemetry();
    res.total = tel_;
    res.nodes_explored = tel_.nodes_explored;
    res.lp_iterations = tel_.lp_iterations;
    res.final_basis = state_.extract_basis();

    res.has_incumbent = has_inc_;
    if (has_inc_) {
      res.objective = inc_obj_;
      res.x = std::move(inc_x_);
    }
    res.incumbents = std::move(records_);
    res.time_to_first_incumbent = t_first_;
    res.time_to_best_incumbent = t_best_;

    // Proven lower bound: the least bound among unexplored nodes;
    // exhausted tree = incumbent.
    double open_bound = kInf;
    for (const Node& nd : heap_) {
      open_bound = std::min(open_bound, nd.parent_bound);
    }
    res.best_bound = std::isfinite(open_bound)
                         ? open_bound
                         : (has_inc_ ? inc_obj_ : kInf);
    if (censored) {
      res.status = SolveStatus::kIterationLimit;
    } else if (!has_inc_) {
      res.status = SolveStatus::kInfeasible;
    } else {
      res.status = SolveStatus::kOptimal;
      res.best_bound = res.objective;
    }

    publish_metrics(res);
    return res;
  }

 private:
  /// Aggregate counters into the process-wide registry, once per solve
  /// (never per node — the search hot path stays registry-free).
  /// Instrument pointers resolve once per process.
  static void publish_metrics(const MipResult& res) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter* const solves = reg.counter("wishbone_bnb_solves");
    static obs::Counter* const nodes = reg.counter("wishbone_bnb_nodes");
    static obs::Counter* const lp_iters =
        reg.counter("wishbone_bnb_lp_iterations");
    static obs::Counter* const refactors =
        reg.counter("wishbone_bnb_basis_refactorizations");
    static obs::Counter* const warm_rejected =
        reg.counter("wishbone_bnb_warm_basis_rejected");
    static obs::Counter* const reentries_dual =
        reg.counter("wishbone_bnb_reentries", {{"mode", "dual"}});
    static obs::Counter* const reentries_phase1 =
        reg.counter("wishbone_bnb_reentries", {{"mode", "phase1"}});
    static obs::Counter* const fallbacks =
        reg.counter("wishbone_bnb_phase1_fallbacks");
    solves->inc();
    nodes->inc(res.nodes_explored);
    lp_iters->inc(res.lp_iterations);
    refactors->inc(res.total.basis_refactorizations);
    if (res.warm_basis_rejected) warm_rejected->inc();
    reentries_dual->inc(res.total.simplex.dual_reentries);
    reentries_phase1->inc(res.total.simplex.phase1_reentries);
    fallbacks->inc(res.total.simplex.phase1_fallbacks);
  }

  void push(Node nd) {
    heap_.push_back(std::move(nd));
    std::push_heap(heap_.begin(), heap_.end(), NodeCompare{});
  }

  void update_incumbent(std::vector<double> x, double obj,
                        std::size_t node) {
    if (has_inc_ && !(obj < inc_obj_ - kGapAbs)) return;
    inc_obj_ = obj;
    inc_x_ = std::move(x);
    has_inc_ = true;
    const double now = clock_.elapsed_seconds();
    if (t_first_ < 0) t_first_ = now;
    t_best_ = now;
    records_.push_back({now, obj, node});
  }

  /// Resets the bounds the state carries from the previous node and
  /// replays the incoming node's delta chain root-to-leaf (later links
  /// only tighten, so replay order makes the leaf win).
  void apply_chain(const Node& nd) {
    for (int v : applied_vars_) {
      state_.set_bounds(v, lp_.lower(v), lp_.upper(v));
    }
    applied_vars_.clear();
    link_scratch_.clear();
    for (const DeltaLink* l = nd.chain.get(); l != nullptr;
         l = l->parent.get()) {
      link_scratch_.push_back(l);
    }
    for (auto it = link_scratch_.rbegin(); it != link_scratch_.rend();
         ++it) {
      for (const BoundDelta& d : (*it)->deltas) {
        state_.set_bounds(d.var, d.lo, d.up);
        applied_vars_.push_back(d.var);
      }
    }
  }

  /// Bound at or above which a node cannot improve the incumbent
  /// (kInf while there is none).
  double cutoff() const {
    return has_inc_ ? inc_obj_ - prune_margin(inc_obj_) : kInf;
  }

  /// Prunes, solves and branches one node. Returns false on a numerical
  /// LP failure, which ends the run as censored.
  bool process(const Node& nd) {
    // Prune against the incumbent before paying for the LP.
    if (nd.parent_bound >= cutoff()) return true;

    // Per-node span under the search span. A sampled trace records
    // every node this search expands; the per-thread ring wraps, so a
    // long proof keeps only its most recent window — exactly the
    // flight-recorder use.
    obs::Span node_span =
        obs::Tracer::global().span("bnb.node", search_ctx_);

    apply_chain(nd);
    if (!opts_.warm_lp) state_.reset();  // seed behavior: cold per node
    // Prune threshold doubles as the LP's dual cutoff: on a dual
    // re-entry the node LP stops the moment its (monotone) bound rises
    // past the point where this node gets pruned anyway — LP-infeasible
    // nodes in particular are cut off long before the full
    // dual-unbounded proof.
    const std::size_t node_idx = ++tel_.nodes_explored;
    const LpSolution rel = state_.solve(cutoff());
    tel_.lp_iterations += rel.iterations;

    if (rel.status == SolveStatus::kInfeasible ||
        rel.status == SolveStatus::kCutoff) {
      return true;
    }
    if (rel.status != SolveStatus::kOptimal) return false;

    // Primal rounding heuristic on every node.
    if (opts_.rounding_hook) {
      if (auto cand = opts_.rounding_hook(rel.x)) {
        if (static_cast<int>(cand->size()) == n_ &&
            lp_.max_violation(*cand) <= kIntTol) {
          const double obj = lp_.objective_value(*cand);
          update_incumbent(std::move(*cand), obj, node_idx);
        }
      }
    }

    // The hook may have just tightened the incumbent.
    if (rel.objective >= cutoff()) return true;

    const int branch = pick_branch_var(lp_, rel.x, kIntTol);
    if (branch < 0) {
      // Integral: new incumbent.
      std::vector<double> xi = rel.x;
      for (int v = 0; v < n_; ++v) {
        if (lp_.is_integer(v)) xi[v] = std::round(xi[v]);
      }
      const double obj = lp_.objective_value(xi);
      update_incumbent(std::move(xi), obj, node_idx);
      return true;
    }

    // Reduced-cost fixing (both children inherit these): a nonbasic
    // integer variable resting on a bound whose reduced cost alone
    // lifts this node's LP bound past the incumbent cutoff can never
    // move in an *improving* subtree solution — pin it. Only integral
    // bounds qualify. The fixings ride the node's own delta chain, so
    // they stay subtree-local.
    std::vector<BoundDelta> fixings;
    if (opts_.reduced_cost_fixing && has_inc_) {
      const double cut = cutoff();
      const std::vector<double>& rc = state_.reduced_costs();
      for (int v = 0; v < n_; ++v) {
        if (!lp_.is_integer(v)) continue;
        const double lo = state_.lower(v);
        const double up = state_.upper(v);
        if (lo == up || up - lo < 1.0 - kIntTol) continue;
        if (std::floor(lo) != lo || std::floor(up) != up) continue;
        if (rc[v] > 0.0 && rel.x[v] <= lo + kIntTol &&
            rel.objective + rc[v] >= cut) {
          fixings.push_back({v, lo, lo});
        } else if (rc[v] < 0.0 && rel.x[v] >= up - kIntTol &&
                   rel.objective - rc[v] >= cut) {
          fixings.push_back({v, up, up});
        }
      }
      tel_.vars_fixed_by_reduced_cost += fixings.size();
    }

    // Branch: floor side and ceil side, as deltas on this node's chain.
    // Both children are one bound away from the basis the state holds
    // right now, so whichever pops next re-solves in a few dual pivots.
    const double xb = rel.x[branch];
    auto extend = [&](double lo, double up) {
      auto link = std::make_shared<DeltaLink>();
      link->parent = nd.chain;
      link->deltas = fixings;
      link->deltas.push_back({branch, lo, up});
      return link;
    };
    push(Node{extend(state_.lower(branch), std::floor(xb)), rel.objective,
              nd.depth + 1});
    push(Node{extend(std::ceil(xb), state_.upper(branch)), rel.objective,
              nd.depth + 1});
    return true;
  }

  const LinearProgram& lp_;
  const MipOptions& opts_;
  const int n_;
  util::Stopwatch clock_;
  SimplexState state_;
  std::vector<int> applied_vars_;
  std::vector<const DeltaLink*> link_scratch_;
  std::vector<Node> heap_;
  SearchTelemetry tel_;

  double inc_obj_ = kInf;  ///< incumbent objective (kInf = none)
  std::vector<double> inc_x_;
  bool has_inc_ = false;
  double t_first_ = -1.0;
  double t_best_ = -1.0;
  std::vector<IncumbentRecord> records_;
  /// Context of the bnb.search span.
  obs::TraceContext search_ctx_;
};

}  // namespace

MipResult BranchAndBound::solve(const LinearProgram& lp,
                                const MipOptions& opts) const {
  WB_REQUIRE(opts.threads == 1,
             "MipOptions::threads must be 1: branch and bound is serial");
  return Search(lp, opts).run();
}

}  // namespace wishbone::ilp
