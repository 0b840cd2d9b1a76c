#include "serve/solve_cache.hpp"

#include "serve/graph_hash.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wishbone::serve {

std::size_t CacheKeyHash::operator()(const CacheKey& k) const {
  std::uint64_t h = util::splitmix64(k.graph_hash);
  h = util::splitmix64(h ^ util::fnv1a(k.platform_id));
  h = util::splitmix64(h ^ profile_hash(k.profile));
  return static_cast<std::size_t>(h);
}

SolveCache::SolveCache(std::size_t capacity) : capacity_(capacity) {
  WB_REQUIRE(capacity >= 1, "SolveCache: capacity must be >= 1");
}

std::uint64_t SolveCache::pair_key(std::uint64_t graph_hash,
                                   const std::string& platform_id) {
  return util::hash_combine(graph_hash, util::fnv1a(platform_id));
}

std::shared_ptr<const partition::PartitionResult> SolveCache::lookup(
    const CacheKey& key, CacheOutcome* outcome) {
  WB_REQUIRE(outcome != nullptr, "SolveCache::lookup: outcome is required");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // promote, iterators stay
    hits_.inc();
    *outcome = CacheOutcome::kHit;
    return it->second->result;
  }
  auto pit = pairs_.find(pair_key(key.graph_hash, key.platform_id));
  const bool known_pair = pit != pairs_.end() && pit->second.entries > 0;
  if (known_pair) {
    stale_.inc();
    *outcome = CacheOutcome::kStale;
  } else {
    *outcome = CacheOutcome::kMiss;
  }
  misses_.inc();
  return nullptr;
}

void SolveCache::insert(
    const CacheKey& key,
    std::shared_ptr<const partition::PartitionResult> result) {
  WB_REQUIRE(result != nullptr, "SolveCache::insert: null result");
  std::lock_guard<std::mutex> lock(mu_);

  PairState& pair = pairs_[pair_key(key.graph_hash, key.platform_id)];
  if (!result->solver.final_basis.empty()) {
    pair.donor = result->solver.final_basis;
  }

  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }

  lru_.push_front(Entry{key, std::move(result)});
  map_.emplace(key, lru_.begin());
  ++pair.entries;
  insertions_.inc();

  while (lru_.size() > capacity_) {
    const Entry& victim = lru_.back();
    auto vp = pairs_.find(pair_key(victim.key.graph_hash,
                                   victim.key.platform_id));
    WB_ASSERT(vp != pairs_.end() && vp->second.entries > 0);
    // The donor basis intentionally survives eviction of its entries:
    // it is one Basis per (graph, platform), cheap, and still the best
    // warm start for the next drifted profile.
    --vp->second.entries;
    map_.erase(victim.key);
    lru_.pop_back();
    evictions_.inc();
  }
}

ilp::Basis SolveCache::warm_basis_donor(std::uint64_t graph_hash,
                                        const std::string& platform_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pairs_.find(pair_key(graph_hash, platform_id));
  if (it == pairs_.end()) return {};
  return it->second.donor;
}

CacheStats SolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {.hits = hits_.value(),
          .misses = misses_.value(),
          .stale = stale_.value(),
          .insertions = insertions_.value(),
          .evictions = evictions_.value(),
          .entries = lru_.size()};
}

}  // namespace wishbone::serve
