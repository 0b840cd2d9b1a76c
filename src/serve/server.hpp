// Partitioning-as-a-service: a long-lived, in-process solve server in
// front of partition::solve_partition (the ROADMAP's "millions of
// users" step). A deployed fleet re-partitions continuously as
// measured profiles drift; the server turns that stream of
// near-identical ILP solves into:
//
//  - cache hits: an LRU of solved partitions keyed by (canonical graph
//    hash, quantized profile cell, platform) answers repeats without
//    touching the solver (serve/solve_cache.hpp);
//  - coalesced solves: concurrent requests for the same key collapse
//    onto one in-flight solve — every waiter gets the same result the
//    moment it lands (the batcher);
//  - warm-started re-solves: a drifted profile (stale cache outcome)
//    re-solves, inheriting the most recent final simplex basis for its
//    (graph, platform) pair the way rate_search threads a basis
//    between probes. The donor basis carries its model's structure
//    hash, and the solver's load_basis turns away a donor whose hash
//    differs — an incompatible donor means a cold solve, never a
//    garbage basis.
//
// Concurrency model: submit() is safe from any thread. A bounded FIFO
// of distinct keys feeds `workers` solver threads; each solve runs the
// serial branch and bound on its worker, so solver parallelism is the
// worker count. workers == 0 runs no threads — tests drain the queue
// deterministically with run_one().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/solve_cache.hpp"

namespace wishbone::serve {

struct ServeOptions {
  std::size_t workers = 2;           ///< solver threads (0 = manual run_one)
  std::size_t queue_capacity = 256;  ///< bounded pending-solve queue
  std::size_t cache_capacity = 4096; ///< LRU solved-partition entries
  /// Relative profile quantization (graph_hash.hpp): profiles within
  /// ~5% land in the same cache cell.
  double profile_resolution = 0.05;
  /// Forwarded to every solve_partition call.
  partition::PartitionOptions partition;
};

struct SolveRequest {
  partition::PartitionProblem problem;
  std::string platform_id;  ///< cache key component (e.g. "tmote_sky")
  /// Canonical hash of the *application graph* this problem came from.
  /// 0 = derive canonical_problem_hash(problem) — fine when callers
  /// submit the problem directly; callers that built the problem from a
  /// graph::Graph should pass canonical_graph_hash(g) so structurally
  /// equal apps share entries regardless of problem construction.
  std::uint64_t graph_hash = 0;
  /// Relative deadline in seconds (0 = none). A blocked submit gives up
  /// waiting for queue space at the deadline (kExpired), and a worker
  /// popping the batch sheds waiters whose deadline already passed
  /// instead of burning solver time on answers nobody can use. The
  /// future itself still resolves when the server answers — callers
  /// that must bound their own blocking pair this with
  /// future::wait_for, as runtime/repartitioner does.
  double deadline_s = 0.0;
};

enum class ResponseSource {
  kCacheHit,   ///< answered from the LRU, no solve
  kSolved,     ///< this request triggered the solve
  kCoalesced,  ///< attached to another request's in-flight solve
  kShutdown,   ///< server stopped before the solve ran
  kExpired,    ///< deadline passed before the solve could start
};

struct SolveResponse {
  std::shared_ptr<const partition::PartitionResult> result;  ///< never null
  ResponseSource source = ResponseSource::kSolved;
  CacheOutcome cache_outcome = CacheOutcome::kMiss;
  double solve_s = 0.0;          ///< wall seconds inside solve_partition
};

/// A reading of the server's counters (monotone since construction).
struct ServerStats {
  std::size_t requests = 0;
  std::size_t cache_hits = 0;
  std::size_t coalesced = 0;
  std::size_t solves = 0;
  std::size_t stale_resolves = 0;     ///< solves triggered by drift
  std::size_t warm_basis_used = 0;    ///< solves that loaded a donor basis
  std::size_t warm_basis_rejected = 0;///< donors of another shape/structure
  std::size_t rejected = 0;           ///< try_submit failures (queue full)
  std::size_t shutdown_flushed = 0;   ///< queued jobs answered kShutdown
  std::size_t submit_timeouts = 0;    ///< blocked submits expired waiting
  std::size_t deadline_expired = 0;   ///< waiters shed before their solve
  std::size_t shed_solves = 0;        ///< batches skipped: no live waiter
  CacheStats cache;
};

class PartitionServer {
 public:
  explicit PartitionServer(ServeOptions opts = {});
  ~PartitionServer();  ///< stop()s and joins

  PartitionServer(const PartitionServer&) = delete;
  PartitionServer& operator=(const PartitionServer&) = delete;

  /// Submits a request; blocks while the solve queue is full — but
  /// never past the request's deadline (kExpired) or a stop()
  /// (kShutdown). The future resolves on a cache hit immediately,
  /// otherwise when the (possibly coalesced) solve lands. After stop()
  /// every submit deterministically answers kShutdown, cache be damned:
  /// a stopped server serves nothing.
  [[nodiscard]] std::future<SolveResponse> submit(SolveRequest req);

  /// Non-blocking submit: std::nullopt when the queue is full (the
  /// request was not accepted and no work was queued).
  [[nodiscard]] std::optional<std::future<SolveResponse>> try_submit(
      SolveRequest req);

  /// Processes one queued solve on the calling thread. Returns false
  /// when the queue is empty. The worker threads run exactly this;
  /// tests with workers == 0 use it to drain deterministically.
  bool run_one();

  /// Stops the workers, joins them, and answers every *still-queued*
  /// job with ResponseSource::kShutdown (result = infeasible
  /// placeholder). A batch already popped by a concurrent manual
  /// run_one is left alone — its runner answers it when the solve
  /// lands. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// The cache key this server derives for a request (exposed so tests
  /// and benchmarks can reason about cells/adjacency).
  [[nodiscard]] CacheKey key_for(const SolveRequest& req) const;

 private:
  struct Batch;

  void worker_loop();
  /// Shared body of submit/try_submit; nullopt only when !block and the
  /// queue is full.
  std::optional<std::future<SolveResponse>> submit_impl(SolveRequest req,
                                                        bool block);
  /// One labeled wishbone_serve_warm_basis_rejected series.
  static obs::InstanceCounter reject_counter(ilp::BasisRejectReason reason);

  ServeOptions opts_;

  // Counters: stats() reads them, the registry exports them. Declared
  // before cache_ so the registry lists the serve series first.
  obs::InstanceCounter requests_{"wishbone_serve_requests"};
  obs::InstanceCounter cache_hits_{"wishbone_serve_cache_hits"};
  obs::InstanceCounter coalesced_{"wishbone_serve_coalesced"};
  obs::InstanceCounter solves_{"wishbone_serve_solves"};
  obs::InstanceCounter stale_resolves_{"wishbone_serve_stale_resolves"};
  obs::InstanceCounter warm_basis_used_{"wishbone_serve_warm_basis_used"};
  /// Indexed by ilp::BasisRejectReason - 1 (kNone counts nothing).
  obs::InstanceCounter warm_basis_rejected_[3] = {
      reject_counter(ilp::BasisRejectReason::kShape),
      reject_counter(ilp::BasisRejectReason::kStructure),
      reject_counter(ilp::BasisRejectReason::kSingular)};
  obs::InstanceCounter rejected_{"wishbone_serve_rejected"};
  obs::InstanceCounter shutdown_flushed_{"wishbone_serve_shutdown_flushed"};
  obs::InstanceCounter submit_timeouts_{"wishbone_serve_submit_timeouts"};
  obs::InstanceCounter deadline_expired_{"wishbone_serve_deadline_expired"};
  obs::InstanceCounter shed_solves_{"wishbone_serve_shed_solves"};
  // Process-wide, shared by all servers.
  obs::Gauge* queue_depth_ =
      obs::Registry::global().gauge("wishbone_serve_queue_depth");
  obs::Histogram* solve_seconds_ =
      obs::Registry::global().histogram("wishbone_serve_solve_seconds");

  SolveCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: queue non-empty or stop
  std::condition_variable space_cv_;  ///< submitters: queue below capacity
  std::vector<CacheKey> queue_;       ///< FIFO of keys awaiting a solve
  std::size_t queue_head_ = 0;        ///< pop index (amortized O(1) FIFO)
  std::unordered_map<CacheKey, std::shared_ptr<Batch>, CacheKeyHash>
      inflight_;
  bool stopping_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace wishbone::serve
