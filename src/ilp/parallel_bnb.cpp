// Multithreaded best-first branch and bound: the one tree-search
// implementation behind BranchAndBound::solve, at any worker count
// (serial == one worker, run inline on the calling thread, so the
// serial and parallel paths can never drift apart semantically).
// Correctness arguments (why racy incumbent reads are conservative, why
// the best-bound aggregation never loses a node) are in
// src/ilp/README.md.
//
// Decomposition (mirroring how distributed Newton methods scale
// structured optimization: independent subproblem solves coordinated
// through a small shared state):
//
//  - N workers, each with a *private* SimplexState: the shared simplex
//    state is the only contention point, resolved by giving every
//    worker its own factorized basis.
//  - A sharded node pool (one deterministic heap per worker) with work
//    stealing: a worker pushes its children to its own shard (locality:
//    the child differs from the basis it just left by one bound) and
//    steals the best node from a sibling's shard only when its own runs
//    dry — the diving tail where a single shard would serialize.
//  - An atomic incumbent: pruning and reduced-cost fixing read it
//    lock-free. Stale reads are *conservative* — the incumbent only
//    ever decreases, so a stale (higher) value prunes and fixes less,
//    never more. Updates re-check under a mutex.
//  - Global best-bound aggregation: every worker publishes its
//    in-flight node's bound under the same shard lock that pops the
//    node, so a scan holding all shard locks (idle path only — the
//    hot paths never take more than their own) sees every unresolved
//    subtree. Idle workers use it to stop the whole search once the
//    gap closes; limit-censored runs price MipResult::best_bound from
//    the post-join open set.
//  - Basis-snapshot handoff: when threads > 1, an expanded node
//    attaches its parent's basis (one extract_basis, shared by both
//    children). A worker that *steals* a node lands far from its own
//    subtree, so it reloads the snapshot via SimplexState::load_basis
//    — one refactorization — instead of phase-1-repairing from an
//    unrelated stale basis. Locally popped nodes skip the reload; the
//    warm basis in the worker's state is already a near ancestor.
//
// Determinism contract: identical objectives and proof outcomes at any
// thread count (node and iteration *counts* vary with interleaving).
// The node heaps order by bound, then depth; remaining ties resolve by
// the heap's deterministic sift order — NOT by creation index, a
// deliberate, measured choice (see NodeCompare below: every total tie
// order tried cost 11–126% more LP iterations on the Fig. 6 sweep).
// Serial runs (threads == 1, executed inline with no spawn) are
// bit-reproducible run-to-run because their push/pop sequence, and
// hence the heap layout, is itself deterministic.
#include "ilp/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
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
/// instead of two n-sized bound vectors — and the links ship across
/// worker threads for free (immutable after construction).
struct DeltaLink {
  std::shared_ptr<const DeltaLink> parent;
  std::vector<BoundDelta> deltas;
};

struct Node {
  std::shared_ptr<const DeltaLink> chain;  ///< null = root bounds
  double parent_bound = -kInf;  ///< LP bound of the parent (for pruning)
  std::size_t depth = 0;
  /// Basis of the parent LP that spawned this node (threads > 1 only;
  /// shared by both siblings). A stealing worker reloads it instead of
  /// phase-1-repairing from whatever unrelated basis it last held.
  std::shared_ptr<const Basis> snapshot;
};

/// std-heap "less": true when `a` pops *after* `b`. Best-first orders
/// by bound, then depth (deeper first, diving toward incumbents);
/// remaining ties resolve by the heap's deterministic sift order —
/// push/pop sequences are identical run to run in serial, so serial
/// walks are bit-reproducible, and parallel runs only promise
/// objective reproducibility anyway.
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

/// One pool shard: a deterministic heap owned by one worker, stealable
/// by the others.
struct alignas(64) Shard {
  std::mutex mu;
  std::vector<Node> heap;
};

struct alignas(64) PaddedBound {
  std::atomic<double> v{kInf};
};

class Search {
 public:
  Search(const LinearProgram& lp, const MipOptions& opts, int num_workers)
      : lp_(lp), opts_(opts), num_workers_(num_workers),
        n_(lp.num_variables()) {
    root_lo_.resize(n_);
    root_hi_.resize(n_);
    for (int v = 0; v < n_; ++v) {
      root_lo_[v] = lp.lower(v);
      root_hi_[v] = lp.upper(v);
    }
    shards_.reserve(num_workers_);
    for (int w = 0; w < num_workers_; ++w) {
      shards_.push_back(std::make_unique<Shard>());
    }
    inflight_ = std::make_unique<PaddedBound[]>(num_workers_);
    tels_.resize(num_workers_);
    final_bases_.resize(num_workers_);
  }

  MipResult run() {
    MipResult res;
    res.threads_used = static_cast<std::size_t>(num_workers_);

    // Span around the whole search; its context parents the per-node
    // and basis spans the workers record. Unsampled = two branches.
    obs::Span search_span =
        obs::Tracer::global().span("bnb.search", opts_.trace);
    search_ctx_ = search_span.context();

    // Root node seeds shard 0; idle workers steal it (or its children).
    push(/*shard=*/0, Node{nullptr, -kInf, 0, nullptr});

    if (num_workers_ == 1) {
      run_worker(0);  // serial specialization: inline, no spawn
    } else {
      std::vector<std::thread> threads;
      threads.reserve(num_workers_);
      for (int w = 0; w < num_workers_; ++w) {
        threads.emplace_back([this, w] { run_worker(w); });
      }
      for (std::thread& t : threads) t.join();
    }

    search_span.finish();

    res.time_total = clock_.elapsed_seconds();
    for (const WorkerTelemetry& t : tels_) res.total += t;
    res.nodes_explored = nodes_explored_.load();  // the node-budget count
    res.lp_iterations = res.total.lp_iterations;
    res.workers = std::move(tels_);

    res.has_incumbent = has_inc_;
    if (has_inc_) {
      res.objective = inc_obj_;
      res.x = inc_x_;
    }
    res.incumbents = std::move(records_);
    res.time_to_first_incumbent = t_first_;
    res.time_to_best_incumbent = t_best_;

    const int basis_from = has_inc_ && inc_worker_ >= 0 ? inc_worker_ : 0;
    res.final_basis = std::move(final_bases_[basis_from]);
    res.warm_basis_loaded = warm_verdict_ == BasisRejectReason::kNone;
    res.warm_basis_reject_reason =
        warm_verdict_.value_or(BasisRejectReason::kNone);
    res.warm_basis_rejected =
        res.warm_basis_reject_reason == BasisRejectReason::kShape ||
        res.warm_basis_reject_reason == BasisRejectReason::kStructure;

    // Proven lower bound: the least bound among unexplored nodes (no
    // locks needed — workers are joined); exhausted tree = incumbent.
    double open_bound = kInf;
    for (const auto& s : shards_) {
      for (const Node& nd : s->heap) {
        open_bound = std::min(open_bound, nd.parent_bound);
      }
    }
    res.best_bound = std::isfinite(open_bound)
                         ? open_bound
                         : (has_inc_ ? inc_obj_ : kInf);
    if (hit_limit_.load()) {
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
    static obs::Counter* const steals = reg.counter("wishbone_bnb_steals");
    static obs::Counter* const reloads =
        reg.counter("wishbone_bnb_snapshot_reloads");
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
    steals->inc(res.total.steals);
    reloads->inc(res.total.snapshot_reloads);
    refactors->inc(res.total.basis_refactorizations);
    if (res.warm_basis_rejected) warm_rejected->inc();
    reentries_dual->inc(res.total.simplex.dual_reentries);
    reentries_phase1->inc(res.total.simplex.phase1_reentries);
    fallbacks->inc(res.total.simplex.phase1_fallbacks);
  }

  /// Worker-private solving context: the whole point of the design is
  /// that nothing in here is ever touched by another thread.
  struct WorkerContext {
    SimplexState state;
    std::vector<int> applied_vars;
    std::vector<const DeltaLink*> link_scratch;
  };

  void notify_all_idle() {
    std::lock_guard<std::mutex> lk(idle_mu_);
    idle_cv_.notify_all();
  }

  void push(int shard, Node nd) {
    Shard& s = *shards_[shard];
    work_.fetch_add(1);
    open_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lk(s.mu);
      s.heap.push_back(std::move(nd));
      std::push_heap(s.heap.begin(), s.heap.end(), NodeCompare{});
    }
    // The idle wakeup has no consumer in a serial solve (the inline
    // worker never waits) — skip it on the default threads=1 path.
    if (num_workers_ > 1) {
      std::lock_guard<std::mutex> lk(idle_mu_);
      idle_cv_.notify_one();
    }
  }

  std::optional<Node> try_pop(int shard, int worker) {
    Shard& s = *shards_[shard];
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.heap.empty()) return std::nullopt;
    std::pop_heap(s.heap.begin(), s.heap.end(), NodeCompare{});
    Node nd = std::move(s.heap.back());
    s.heap.pop_back();
    open_.fetch_sub(1);
    if (num_workers_ > 1) {
      // Publish the in-flight bound under the same lock that removes
      // the node from the shard: at every instant the node is visible
      // to global_best_bound() in the shard, the slot, or both.
      inflight_[worker].v.store(nd.parent_bound);
    }
    return nd;
  }

  /// Marks the in-flight node resolved; wakes everyone when the tree is
  /// exhausted. Children (if any) were pushed before this is called, so
  /// `work_` can only reach zero when the search is truly done.
  void complete(int worker) {
    if (num_workers_ > 1) inflight_[worker].v.store(kInf);
    if (work_.fetch_sub(1) == 1 && num_workers_ > 1) notify_all_idle();
  }

  /// The clock or node budget just ran out. Open nodes can never be
  /// processed now, so their presence means a censored run — but when
  /// only *in-flight* nodes remain, the tree may still exhaust (their
  /// leaves close it) and the run is then a completed proof, exactly
  /// as the serial loop of old decided by checking emptiness before
  /// the budget. Wait for the picture to settle.
  void resolve_limit() {
    for (;;) {
      if (work_.load() == 0) {
        notify_all_idle();
        return;  // exhausted: proved, not censored
      }
      if (open_.load() > 0) {
        hit_limit_.store(true);
        stop_.store(true);
        notify_all_idle();
        return;
      }
      std::unique_lock<std::mutex> lk(idle_mu_);
      idle_cv_.wait_for(lk, std::chrono::microseconds(200));
    }
  }

  /// Global lower bound over every unresolved subtree: min over the
  /// open nodes of all shards and the in-flight slots. Takes every
  /// shard lock (in index order — pushers take one at a time, so no
  /// deadlock), which freezes node movement for the scan: a popped
  /// node publishes its slot under the lock that removes it, so it is
  /// visible in the shard, the slot, or both at every instant, and a
  /// completing worker clears its slot only *after* its children's
  /// pushes (which block on the held locks) land. A stale slot read
  /// (parent bound ≤ its children's bounds) only lowers the result —
  /// conservative. Called from the idle path only; the pruning /
  /// fixing hot paths never touch it.
  double global_best_bound() {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& s : shards_) locks.emplace_back(s->mu);
    double b = kInf;
    for (int w = 0; w < num_workers_; ++w) {
      b = std::min(b, inflight_[w].v.load());
    }
    for (const auto& s : shards_) {
      for (const Node& nd : s->heap) b = std::min(b, nd.parent_bound);
    }
    return b;
  }

  bool try_update_incumbent(std::vector<double> x, double obj,
                            std::size_t node, int worker) {
    std::lock_guard<std::mutex> lk(inc_mu_);
    if (has_inc_ && !(obj < inc_obj_ - kGapAbs)) return false;
    inc_obj_ = obj;
    incumbent_.store(obj);
    inc_x_ = std::move(x);
    has_inc_ = true;
    inc_worker_ = worker;
    const double now = clock_.elapsed_seconds();
    if (t_first_ < 0) t_first_ = now;
    t_best_ = now;
    records_.push_back({now, obj, node});
    return true;
  }

  /// Resets the bounds the worker's state carries from its previous
  /// node and replays the incoming node's delta chain root-to-leaf
  /// (later links only tighten, so replay order makes the leaf win).
  void apply_chain(WorkerContext& ctx, const Node& nd) {
    for (int v : ctx.applied_vars) {
      ctx.state.set_bounds(v, root_lo_[v], root_hi_[v]);
    }
    ctx.applied_vars.clear();
    ctx.link_scratch.clear();
    for (const DeltaLink* l = nd.chain.get(); l != nullptr;
         l = l->parent.get()) {
      ctx.link_scratch.push_back(l);
    }
    for (auto it = ctx.link_scratch.rbegin(); it != ctx.link_scratch.rend();
         ++it) {
      for (const BoundDelta& d : (*it)->deltas) {
        ctx.state.set_bounds(d.var, d.lo, d.up);
        ctx.applied_vars.push_back(d.var);
      }
    }
  }

  /// Pops the next node: own shard first, then a round-robin steal
  /// sweep. Returns nullopt when the search is over (tree exhausted,
  /// gap closed, limit hit, or another worker failed).
  std::optional<Node> acquire(int w, WorkerTelemetry& tel, bool& stolen) {
    stolen = false;
    for (;;) {
      if (stop_.load()) return std::nullopt;
      // Exhaustion outranks the limits, as in the serial loop of old:
      // a tree that empties on exactly the last budgeted node is a
      // completed proof, not a censored run.
      if (work_.load() == 0) {
        notify_all_idle();
        return std::nullopt;
      }
      if (clock_.elapsed_seconds() > opts_.time_limit_s ||
          nodes_explored_.load() >= opts_.max_nodes) {
        resolve_limit();
        return std::nullopt;
      }
      if (auto nd = try_pop(w, w)) return nd;
      for (int i = 1; i < num_workers_; ++i) {
        if (auto nd = try_pop((w + i) % num_workers_, w)) {
          stolen = true;
          ++tel.steals;
          return nd;
        }
      }
      if (work_.load() == 0) {
        notify_all_idle();
        return std::nullopt;
      }
      // Nothing stealable but nodes are in flight. If the global scan
      // proves every open subtree is already above the incumbent
      // cutoff, the proof is complete — stop the whole search instead
      // of waiting for each node to be popped and pruned one by one.
      const double inc = incumbent_.load();
      if (std::isfinite(inc)) {
        if (global_best_bound() >= inc - prune_margin(inc)) {
          stop_.store(true);
          notify_all_idle();
          return std::nullopt;
        }
      }
      const double t0 = clock_.elapsed_seconds();
      {
        std::unique_lock<std::mutex> lk(idle_mu_);
        idle_cv_.wait_for(lk, std::chrono::milliseconds(1));
      }
      tel.idle_s += clock_.elapsed_seconds() - t0;
    }
  }

  void process(int w, WorkerContext& ctx, Node nd, bool stolen,
               WorkerTelemetry& tel) {
    // Prune against the incumbent before paying for the LP. A stale
    // (higher) incumbent read prunes *less* — conservative, so racy
    // lock-free reads are sound here and in the fixing pass below.
    const double inc0 = incumbent_.load();
    if (nd.parent_bound >= inc0 - prune_margin(inc0)) {
      complete(w);
      return;
    }

    // Claim a node-budget ticket *before* the LP so the budget is
    // exact at any thread count: acquire()'s pre-pop check races with
    // siblings near the boundary, and without the ticket N workers
    // could each overshoot by one. An over-budget claim is returned —
    // ticket and node both — and the run resolves as censored (the
    // node we just gave back is open and will never be processed).
    const std::size_t node_idx = nodes_explored_.fetch_add(1) + 1;
    if (node_idx > opts_.max_nodes) {
      nodes_explored_.fetch_sub(1);
      push(w, std::move(nd));
      complete(w);
      hit_limit_.store(true);
      stop_.store(true);
      notify_all_idle();
      return;
    }

    // Per-node span under the search span. A sampled trace records
    // every node this search expands; the per-thread ring wraps, so a
    // long proof keeps only its most recent window — exactly the
    // flight-recorder use.
    obs::Span node_span =
        obs::Tracer::global().span("bnb.node", search_ctx_);

    apply_chain(ctx, nd);
    if (stolen && nd.snapshot && opts_.warm_lp) {
      // A stolen node is far from this worker's previous subtree: its
      // own basis would need a long repair walk. Reload the parent
      // snapshot instead — one refactorization, then the node LP is a
      // single bound edit away. load_basis falls back to a cold basis
      // on failure, which is still correct.
      obs::Span load_span =
          obs::Tracer::global().span("basis.load", node_span.context());
      if (ctx.state.load_basis(*nd.snapshot) == BasisRejectReason::kNone) {
        ++tel.snapshot_reloads;
      }
    }
    if (!opts_.warm_lp) ctx.state.reset();  // seed behavior: cold per node
    // Prune threshold doubles as the LP's dual cutoff: on a dual
    // re-entry the node LP stops the moment its (monotone) bound rises
    // past the point where this node gets pruned anyway — LP-infeasible
    // nodes in particular are cut off long before the full
    // dual-unbounded proof. Racy incumbent read is sound: a stale value
    // is only ever higher, which weakens the cutoff.
    double lp_cutoff = kInf;
    {
      const double inc0 = incumbent_.load();
      if (std::isfinite(inc0)) lp_cutoff = inc0 - prune_margin(inc0);
    }
    const LpSolution rel = ctx.state.solve(lp_cutoff);
    tel.lp_iterations += rel.iterations;
    ++tel.nodes_explored;

    if (rel.status == SolveStatus::kInfeasible ||
        rel.status == SolveStatus::kCutoff) {
      complete(w);
      return;
    }
    if (rel.status != SolveStatus::kOptimal) {
      // Numerical failure in a node LP: report as a censored run.
      hit_limit_.store(true);
      stop_.store(true);
      complete(w);
      notify_all_idle();
      return;
    }

    // Primal rounding heuristic on every node (must be reentrant when
    // threads > 1 — see MipOptions::threads).
    if (opts_.rounding_hook) {
      if (auto cand = opts_.rounding_hook(rel.x)) {
        if (static_cast<int>(cand->size()) == n_ &&
            lp_.max_violation(*cand) <= kIntTol) {
          const double obj = lp_.objective_value(*cand);
          try_update_incumbent(std::move(*cand), obj, node_idx, w);
        }
      }
    }

    // (Re)read the incumbent: the hook (or another worker) may have
    // tightened it while the LP was solving.
    const double inc1 = incumbent_.load();
    const double node_margin = prune_margin(inc1);
    if (rel.objective >= inc1 - node_margin) {
      complete(w);
      return;
    }

    const int branch = pick_branch_var(lp_, rel.x, kIntTol);
    if (branch < 0) {
      // Integral: new incumbent.
      std::vector<double> xi = rel.x;
      for (int v = 0; v < n_; ++v) {
        if (lp_.is_integer(v)) xi[v] = std::round(xi[v]);
      }
      const double obj = lp_.objective_value(xi);
      try_update_incumbent(std::move(xi), obj, node_idx, w);
      complete(w);
      return;
    }

    // Reduced-cost fixing (both children inherit these): a nonbasic
    // integer variable resting on a bound whose reduced cost alone
    // lifts this node's LP bound past the incumbent cutoff can never
    // move in an *improving* subtree solution — pin it. Only integral
    // bounds qualify. The fixings ride the node's own delta chain, so
    // they stay subtree-local no matter which worker picks the
    // children up; the incumbent read is racy but only ever *higher*
    // than the true incumbent, which weakens the cutoff and fixes
    // fewer variables — never an unsound fix.
    std::vector<BoundDelta> fixings;
    if (opts_.reduced_cost_fixing && std::isfinite(inc1)) {
      const double cutoff = inc1 - node_margin;
      const std::vector<double>& rc = ctx.state.reduced_costs();
      for (int v = 0; v < n_; ++v) {
        if (!lp_.is_integer(v)) continue;
        const double lo = ctx.state.lower(v);
        const double up = ctx.state.upper(v);
        if (lo == up || up - lo < 1.0 - kIntTol) continue;
        if (std::floor(lo) != lo || std::floor(up) != up) continue;
        if (rc[v] > 0.0 && rel.x[v] <= lo + kIntTol &&
            rel.objective + rc[v] >= cutoff) {
          fixings.push_back({v, lo, lo});
        } else if (rc[v] < 0.0 && rel.x[v] >= up - kIntTol &&
                   rel.objective - rc[v] >= cutoff) {
          fixings.push_back({v, up, up});
        }
      }
      tel.vars_fixed_by_reduced_cost += fixings.size();
    }

    // Branch: floor side and ceil side, as deltas on this node's chain.
    // Children go to this worker's own shard — they are one bound away
    // from the basis its state holds right now, so keeping them local
    // preserves the warm-start locality that made PR 1 fast. With more
    // than one worker, capture the parent basis once so a *stealing*
    // worker can reload it instead of repairing a stale basis.
    std::shared_ptr<const Basis> snap;
    if (num_workers_ > 1 && opts_.warm_lp) {
      snap = std::make_shared<const Basis>(ctx.state.extract_basis());
    }
    const double xb = rel.x[branch];
    auto extend = [&](double lo, double up) {
      auto link = std::make_shared<DeltaLink>();
      link->parent = nd.chain;
      link->deltas = fixings;
      link->deltas.push_back({branch, lo, up});
      return link;
    };
    push(w, Node{extend(ctx.state.lower(branch), std::floor(xb)),
                 rel.objective, nd.depth + 1, snap});
    push(w, Node{extend(std::ceil(xb), ctx.state.upper(branch)),
                 rel.objective, nd.depth + 1, snap});
    complete(w);
  }

  void run_worker(int w) {
    WorkerTelemetry& tel = tels_[w];
    WorkerContext ctx{SimplexState(lp_, opts_.lp), {}, {}};
    if (opts_.warm_basis && !opts_.warm_basis->empty()) {
      // Every worker inherits the caller's basis: any of them may end
      // up solving the root (or an early steal) and the load is one
      // refactorization against a search of many node LPs. A basis of
      // another shape or structure is turned away in O(1), before any
      // factorization. Worker 0's verdict is the one the result reports.
      obs::Span load_span =
          obs::Tracer::global().span("basis.load", search_ctx_);
      const BasisRejectReason verdict =
          ctx.state.load_basis(*opts_.warm_basis);
      if (w == 0) warm_verdict_ = verdict;
    }
    for (;;) {
      bool stolen = false;
      std::optional<Node> nd = acquire(w, tel, stolen);
      if (!nd) break;
      process(w, ctx, std::move(*nd), stolen, tel);
    }
    const BasisEngineStats& bs = ctx.state.basis_stats();
    tel.basis_refactorizations = bs.refactorizations;
    tel.eta_updates = bs.eta_updates;
    tel.eta_len_peak = bs.eta_len_peak;
    tel.simplex = ctx.state.telemetry();
    final_bases_[w] = ctx.state.extract_basis();
  }

  const LinearProgram& lp_;
  const MipOptions& opts_;
  const int num_workers_;
  const int n_;
  util::Stopwatch clock_;

  std::vector<double> root_lo_, root_hi_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<PaddedBound[]> inflight_;

  /// Open nodes + in-flight nodes; the search is over at zero. Child
  /// pushes increment before the parent's completion decrements, so
  /// zero is unreachable while any subtree is unresolved.
  std::atomic<std::size_t> work_{0};
  /// Nodes currently sitting in a shard (work_ minus in-flight):
  /// resolve_limit() distinguishes "censored, nodes left behind" from
  /// "in-flight tail may still exhaust the tree" with it.
  std::atomic<std::size_t> open_{0};
  std::atomic<std::size_t> nodes_explored_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> hit_limit_{false};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  /// Lock-free mirror of the incumbent objective (kInf = none) read by
  /// the pruning / fixing hot paths; the full record updates under
  /// inc_mu_ with a re-check.
  std::atomic<double> incumbent_{kInf};
  std::mutex inc_mu_;
  double inc_obj_ = kInf;
  std::vector<double> inc_x_;
  bool has_inc_ = false;
  int inc_worker_ = -1;
  double t_first_ = -1.0;
  double t_best_ = -1.0;
  std::vector<IncumbentRecord> records_;

  /// One slot per worker, written only by that worker, read after
  /// join(): its counters and the basis its state held on exit.
  std::vector<WorkerTelemetry> tels_;
  std::vector<Basis> final_bases_;
  /// Worker 0's load_basis verdict on MipOptions::warm_basis (nullopt
  /// when none was supplied).
  std::optional<BasisRejectReason> warm_verdict_;
  /// Context of the bnb.search span; written in run() before workers
  /// spawn, read-only afterwards.
  obs::TraceContext search_ctx_;
};

}  // namespace

MipResult BranchAndBound::solve(const LinearProgram& lp,
                                const MipOptions& opts) const {
  std::size_t workers = opts.threads;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // Clamp before the int cast: a garbage thread count (e.g. a CLI
  // "-1" pushed through size_t) must degrade to a bounded worker
  // pool, not truncate arbitrarily or build a shardless Search.
  workers = std::min<std::size_t>(workers, 512);
  Search search(lp, opts, static_cast<int>(workers));
  return search.run();
}

}  // namespace wishbone::ilp
