#include "serve/server.hpp"

#include <chrono>
#include <utility>

#include "ilp/simplex.hpp"
#include "obs/trace.hpp"
#include "serve/graph_hash.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace wishbone::serve {

namespace {

/// Terminal response with an infeasible placeholder result (the
/// shutdown/expired paths — "never null" still holds).
SolveResponse terminal_response(ResponseSource source, CacheOutcome outcome) {
  SolveResponse resp;
  resp.result = std::make_shared<partition::PartitionResult>();
  resp.source = source;
  resp.cache_outcome = outcome;
  return resp;
}

}  // namespace

obs::InstanceCounter PartitionServer::reject_counter(
    ilp::BasisRejectReason reason) {
  // The unlabeled series is the sum of the shape and structure series:
  // the donors that came from another formulation. Singular load
  // failures count only under their own reason.
  return obs::InstanceCounter(
      "wishbone_serve_warm_basis_rejected",
      {{"reason", ilp::basis_reject_name(reason)}}, obs::Registry::global(),
      reason == ilp::BasisRejectReason::kShape ||
          reason == ilp::BasisRejectReason::kStructure);
}

/// One pending solve: the problem to run plus every promise waiting on
/// it, each with its own admission-time deadline so a worker can shed
/// the ones that expired before the solve started.
struct PartitionServer::Batch {
  partition::PartitionProblem problem;
  CacheOutcome outcome = CacheOutcome::kMiss;  ///< at batch creation
  struct Waiter {
    std::promise<SolveResponse> promise;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    bool creator = false;  ///< the request that created the batch
  };
  std::vector<Waiter> waiters;
  /// Context of the creating submit's span: the worker parents the
  /// serve.queue / serve.solve spans under it. Unsampled = all zeros.
  obs::TraceContext trace;
  std::uint64_t enqueue_ns = 0;  ///< tracer clock at queue admission
};

PartitionServer::PartitionServer(ServeOptions opts)
    : opts_(opts), cache_(opts.cache_capacity) {
  WB_REQUIRE(opts_.queue_capacity >= 1,
             "PartitionServer: queue_capacity must be >= 1");
  threads_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

PartitionServer::~PartitionServer() { stop(); }

CacheKey PartitionServer::key_for(const SolveRequest& req) const {
  CacheKey k;
  k.graph_hash = req.graph_hash != 0 ? req.graph_hash
                                     : canonical_problem_hash(req.problem);
  k.platform_id = req.platform_id;
  k.profile = quantize_profile(req.problem, ServeOptions::profile_resolution);
  return k;
}

std::future<SolveResponse> PartitionServer::submit(SolveRequest req) {
  // submit() blocks for space, so it always yields a future.
  std::optional<std::future<SolveResponse>> fut =
      submit_impl(std::move(req), /*block=*/true);
  WB_ASSERT(fut.has_value());
  return std::move(*fut);
}

std::optional<std::future<SolveResponse>> PartitionServer::try_submit(
    SolveRequest req) {
  return submit_impl(std::move(req), /*block=*/false);
}

std::optional<std::future<SolveResponse>> PartitionServer::submit_impl(
    SolveRequest req, bool block) {
  obs::Tracer& tracer = obs::Tracer::global();
  // Root span of the request: samples 1-in-N when tracing is enabled,
  // otherwise this is a single relaxed load and every span below it is
  // a no-op.
  obs::Span submit_span =
      tracer.span("serve.submit", tracer.maybe_start_trace());
  requests_.inc();

  const bool has_deadline = req.deadline_s > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(has_deadline ? req.deadline_s : 0.0));

  CacheKey key = key_for(req);

  std::promise<SolveResponse> done;
  std::future<SolveResponse> fut = done.get_future();

  // A stopped server answers kShutdown deterministically — before the
  // cache fast path, so post-stop behavior does not depend on what
  // happens to still be cached.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      done.set_value(
          terminal_response(ResponseSource::kShutdown, CacheOutcome::kMiss));
      return fut;
    }
  }

  // Fast path outside mu_: the cache has its own lock, and a hit never
  // touches the queue.
  CacheOutcome outcome = CacheOutcome::kMiss;
  std::shared_ptr<const partition::PartitionResult> cached =
      cache_.lookup(key, &outcome);

  if (cached) {
    cache_hits_.inc();
    SolveResponse resp;
    resp.result = std::move(cached);
    resp.source = ResponseSource::kCacheHit;
    resp.cache_outcome = CacheOutcome::kHit;
    done.set_value(std::move(resp));
    return fut;
  }

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) {
      lock.unlock();
      done.set_value(terminal_response(ResponseSource::kShutdown, outcome));
      return fut;
    }
    // Coalesce: someone is already solving exactly this key (possibly a
    // batch that appeared while we waited for queue space).
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      coalesced_.inc();
      // Follower submits leave a zero-duration serve.coalesced marker on
      // the *leader's* trace, so a sampled trace shows how many requests
      // piled onto the in-flight solve and when each one attached.
      if (it->second->trace.sampled()) {
        tracer.record_span("serve.coalesced", it->second->trace,
                           tracer.now_ns(), 0);
      }
      Batch::Waiter w;
      w.promise = std::move(done);
      w.deadline = deadline;
      w.has_deadline = has_deadline;
      it->second->waiters.push_back(std::move(w));
      return fut;
    }
    if (queue_.size() - queue_head_ < opts_.queue_capacity) break;
    if (!block) {
      rejected_.inc();
      return std::nullopt;
    }
    // Admission control under overload: wait for queue space, but only
    // until the request's own deadline — a submit never blocks
    // indefinitely on a saturated server.
    if (has_deadline) {
      if (space_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        submit_timeouts_.inc();
        lock.unlock();
        done.set_value(terminal_response(ResponseSource::kExpired, outcome));
        return fut;
      }
    } else {
      space_cv_.wait(lock);
    }
  }

  auto batch = std::make_shared<Batch>();
  batch->problem = std::move(req.problem);
  batch->outcome = outcome;
  if (submit_span.sampled()) {
    batch->trace = submit_span.context();
    batch->enqueue_ns = tracer.now_ns();
  }
  Batch::Waiter w;
  w.promise = std::move(done);
  w.deadline = deadline;
  w.has_deadline = has_deadline;
  w.creator = true;
  batch->waiters.push_back(std::move(w));
  inflight_.emplace(key, std::move(batch));
  queue_.push_back(std::move(key));
  queue_depth_->set(static_cast<double>(queue_.size() - queue_head_));
  lock.unlock();
  work_cv_.notify_one();
  return fut;
}

bool PartitionServer::run_one() {
  obs::Tracer& tracer = obs::Tracer::global();
  const auto now = std::chrono::steady_clock::now();
  CacheKey key;
  std::shared_ptr<Batch> batch;
  std::vector<Batch::Waiter> expired;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_head_ == queue_.size()) return false;
    key = std::move(queue_[queue_head_++]);
    if (queue_head_ == queue_.size()) {
      queue_.clear();
      queue_head_ = 0;
    }
    queue_depth_->set(static_cast<double>(queue_.size() - queue_head_));
    auto it = inflight_.find(key);
    WB_ASSERT(it != inflight_.end());
    batch = it->second;

    // Load shedding: waiters whose deadline passed while the batch sat
    // in the queue are answered kExpired now; if none are left, the
    // solve itself is skipped — under overload the server spends its
    // solver time only on answers someone is still waiting for.
    std::vector<Batch::Waiter> live;
    for (Batch::Waiter& w : batch->waiters) {
      if (w.has_deadline && w.deadline <= now) {
        expired.push_back(std::move(w));
      } else {
        live.push_back(std::move(w));
      }
    }
    batch->waiters = std::move(live);
    deadline_expired_.inc(expired.size());
    if (batch->waiters.empty()) {
      inflight_.erase(it);
      shed_solves_.inc();
      shed = true;
    }
  }
  space_cv_.notify_one();
  for (Batch::Waiter& w : expired) {
    w.promise.set_value(
        terminal_response(ResponseSource::kExpired, batch->outcome));
  }
  if (shed) return true;

  // Warm-basis reuse across cache-adjacent requests: the most recent
  // final basis for this (graph, platform) pair, from any profile cell.
  // It carries its formulation's structure hash, so the solver's
  // load_basis cold-starts on a mismatch — e.g. when drift zeroed a
  // bandwidth and changed the active constraint structure.
  partition::PartitionOptions po = opts_.partition;
  ilp::Basis donor = cache_.warm_basis_donor(key.graph_hash, key.platform_id);
  if (!donor.empty()) po.mip.warm_basis = std::move(donor);

  // Close the queue-wait span retroactively (enqueue -> pop, measured
  // across threads on the tracer clock) and hang the solve span — and
  // through MipOptions::trace the whole B&B subtree — under it.
  obs::TraceContext queue_ctx = batch->trace;
  if (batch->trace.sampled()) {
    const std::uint64_t pop_ns = tracer.now_ns();
    const std::uint64_t queue_span = tracer.record_span(
        "serve.queue", batch->trace, batch->enqueue_ns,
        pop_ns > batch->enqueue_ns ? pop_ns - batch->enqueue_ns : 0);
    queue_ctx.span_id = queue_span;
  }
  obs::Span solve_span = tracer.span("serve.solve", queue_ctx);
  po.mip.trace = solve_span.context();

  const util::Stopwatch solve_clock;
  auto result = std::make_shared<const partition::PartitionResult>(
      partition::solve_partition(batch->problem, po));
  const double solve_s = solve_clock.elapsed_seconds();
  solve_span.finish();
  solve_seconds_->record(solve_s);

  // Publish to the cache *before* retiring the in-flight entry so a
  // concurrent submit for this key finds one or the other (a request in
  // between would re-solve needlessly, never incorrectly).
  cache_.insert(key, result);

  solves_.inc();
  if (batch->outcome == CacheOutcome::kStale) stale_resolves_.inc();
  if (result->solver.warm_basis_loaded) warm_basis_used_.inc();
  const ilp::BasisRejectReason reject = result->solver.warm_basis_reject_reason;
  if (reject != ilp::BasisRejectReason::kNone)
    warm_basis_rejected_[static_cast<int>(reject) - 1].inc();

  std::vector<Batch::Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiters = std::move(batch->waiters);
    inflight_.erase(key);
  }

  SolveResponse proto;
  proto.result = std::move(result);
  proto.cache_outcome = batch->outcome;
  proto.solve_s = solve_s;
  for (Batch::Waiter& w : waiters) {
    SolveResponse resp = proto;
    resp.source =
        w.creator ? ResponseSource::kSolved : ResponseSource::kCoalesced;
    w.promise.set_value(std::move(resp));
  }
  return true;
}

void PartitionServer::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [this] { return stopping_ || queue_head_ < queue_.size(); });
    if (stopping_) return;
    lock.unlock();
    // May lose the race to a sibling worker and find the queue empty —
    // that's fine, we just go back to waiting.
    run_one();
    lock.lock();
  }
}

void PartitionServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }

  // Flush exactly the batches still sitting in the queue. Iterating
  // inflight_ instead would also sweep up a batch a concurrent manual
  // run_one (workers == 0 mode) already popped and is mid-solve on —
  // moving its waiters out from under it means set_value on moved-from
  // promises (std::future_error) when the solve lands. Popped batches
  // keep their inflight_ entry and are answered by their runner.
  std::vector<Batch::Waiter> flushed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = queue_head_; i < queue_.size(); ++i) {
      auto it = inflight_.find(queue_[i]);
      if (it == inflight_.end()) continue;
      for (Batch::Waiter& w : it->second->waiters) {
        flushed.push_back(std::move(w));
      }
      inflight_.erase(it);
    }
    queue_.clear();
    queue_head_ = 0;
  }
  shutdown_flushed_.inc(flushed.size());
  for (Batch::Waiter& w : flushed) {
    w.promise.set_value(
        terminal_response(ResponseSource::kShutdown, CacheOutcome::kMiss));
  }
}

ServerStats PartitionServer::stats() const {
  return {.requests = requests_.value(),
          .cache_hits = cache_hits_.value(),
          .coalesced = coalesced_.value(),
          .solves = solves_.value(),
          .stale_resolves = stale_resolves_.value(),
          .warm_basis_used = warm_basis_used_.value(),
          .warm_basis_rejected = warm_basis_rejected_[0].value() +  // shape
                                 warm_basis_rejected_[1].value(),   // structure
          .rejected = rejected_.value(),
          .shutdown_flushed = shutdown_flushed_.value(),
          .submit_timeouts = submit_timeouts_.value(),
          .deadline_expired = deadline_expired_.value(),
          .shed_solves = shed_solves_.value(),
          .cache = cache_.stats()};
}

}  // namespace wishbone::serve
