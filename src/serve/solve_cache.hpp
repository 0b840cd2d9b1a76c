// LRU cache of solved partitions for the partitioning service.
//
// Key: (canonical graph hash, quantized profile vector, platform id) —
// see serve/graph_hash.hpp. Two fleet devices running the same app on
// the same platform whose measured profiles fall in the same
// quantization cell share one entry; a profile that drifts across a
// cell boundary misses, but the cache still helps twice:
//
//  - the *stale* lookup outcome reports that the (graph, platform)
//    pair is known with a different profile cell, so the server counts
//    drift-triggered re-solves separately from genuinely new work;
//  - the most recent final simplex basis per (graph, platform) is kept
//    as a warm-start donor: a drifted re-solve inherits it the way
//    rate_search threads a basis between probes. The basis carries its
//    model's structure hash, and SimplexState::load_basis turns it away
//    when the new formulation's differs — an incompatible donor means
//    a cold solve, never a garbage load.
//
// Thread safety: every public method is safe to call concurrently; one
// mutex guards the map and the LRU list (the counters are lock-free
// obs::InstanceCounters the registry exports). Entries store
// completed PartitionResults by value (shared_ptr) so readers never
// hold the lock while copying a large result.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ilp/simplex.hpp"
#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"

namespace wishbone::serve {

struct CacheKey {
  std::uint64_t graph_hash = 0;
  std::string platform_id;
  std::vector<std::int64_t> profile;  ///< quantized (graph_hash pins order)

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const;
};

enum class CacheOutcome {
  kHit,    ///< exact entry found
  kStale,  ///< (graph, platform) known, profile cell drifted -> re-solve
  kMiss,   ///< never seen this (graph, platform)
};

/// A reading of a SolveCache's counters (monotone since construction).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t stale = 0;      ///< drift-triggered misses
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;    ///< current size
};

class SolveCache {
 public:
  /// `capacity` bounds the number of cached results (LRU eviction).
  explicit SolveCache(std::size_t capacity);

  /// Looks `key` up; on a hit, promotes the entry to most-recent and
  /// returns the result. On a miss/stale returns nullptr and reports
  /// which through `outcome` (never null).
  [[nodiscard]] std::shared_ptr<const partition::PartitionResult> lookup(
      const CacheKey& key, CacheOutcome* outcome);

  /// Inserts (or replaces) the solved result for `key` and records its
  /// final basis as the warm-start donor for the (graph, platform)
  /// pair. Evicts the least-recently-used entry over capacity.
  void insert(const CacheKey& key,
              std::shared_ptr<const partition::PartitionResult> result);

  /// Most recent final basis solved for (graph_hash, platform_id), or
  /// an empty basis. The donor for cache-adjacent warm starts; callers
  /// hand it to MipOptions::warm_basis and rely on load_basis to turn
  /// away a donor of another structure.
  [[nodiscard]] ilp::Basis warm_basis_donor(std::uint64_t graph_hash,
                                            const std::string& platform_id);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const partition::PartitionResult> result;
  };
  using Lru = std::list<Entry>;

  /// Secondary index key: (graph, platform) without the profile.
  static std::uint64_t pair_key(std::uint64_t graph_hash,
                                const std::string& platform_id);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  Lru lru_;  ///< front = most recent
  std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> map_;
  /// (graph, platform) -> live entry count + latest donor basis.
  struct PairState {
    std::size_t entries = 0;
    ilp::Basis donor;
  };
  std::unordered_map<std::uint64_t, PairState> pairs_;

  obs::InstanceCounter hits_{"wishbone_cache_hits"};
  obs::InstanceCounter misses_{"wishbone_cache_misses"};
  obs::InstanceCounter stale_{"wishbone_cache_stale"};
  obs::InstanceCounter insertions_{"wishbone_cache_insertions"};
  obs::InstanceCounter evictions_{"wishbone_cache_evictions"};
};

}  // namespace wishbone::serve
