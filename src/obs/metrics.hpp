// Process-wide metrics registry: the common model for every telemetry
// counter in the stack. Every layer gets the same instruments and two
// exporters:
//
//  - Counter: monotone, lock-free, sharded across cache lines so
//    concurrent increments from the serve workers never bounce one
//    hot line. Counts a component's stats() also reads live
//    in InstanceCounters it owns, which the registry exports;
//  - Gauge: last-written double (fleet goodput, divergence, queue
//    depth);
//  - Histogram: fixed log-scale buckets with atomic counts —
//    p50/p95/p99 extraction without storing samples. Built once,
//    zero-allocation to record (BufferPool-style preregistration:
//    components resolve their instrument pointers at construction and
//    hot paths touch only the returned pointers).
//
// Exporters: Prometheus text exposition (counters as _total, gauges,
// histograms as cumulative _bucket/_sum/_count series) and a JSON
// snapshot over the shared obs::JsonWriter.
//
// Determinism contract: instruments are passive — recording never reads
// a clock, never allocates, and never feeds back into computation, so
// enabling metrics cannot perturb a bit-reproducible replay. (Exports
// allocate; they are not hot-path operations.)
//
// Naming convention (enforced socially, validated by
// bench/check_obs_export.py): `wishbone_<layer>_<what>[_<unit>]`, e.g.
// wishbone_serve_requests_total, wishbone_bnb_lp_iterations_total,
// wishbone_serve_solve_seconds (histogram). Labels are for bounded
// enumerations only (rung, reason, source) — never per-request values.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wishbone::obs {

/// One `key="value"` metric label. Keep cardinality bounded: labels
/// multiply time series.
struct Label {
  std::string key;
  std::string value;
  friend bool operator==(const Label&, const Label&) = default;
};
using Labels = std::vector<Label>;

// ---------------------------------------------------------------------------
// Counter

/// Monotone counter, sharded to keep concurrent writers off one cache
/// line. inc() is a single relaxed fetch_add on the caller's shard;
/// value() sums the shards (monotone but not a point-in-time snapshot
/// under concurrent writers — exactly the Prometheus counter contract).
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t s = 0;
    for (const Shard& sh : shards_) s += sh.v.load(std::memory_order_relaxed);
    return s;
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index();
  std::array<Shard, kShards> shards_;
};

// ---------------------------------------------------------------------------
// Gauge

/// Last-written double. set/add are atomic; add is a CAS loop (gauges
/// are low-frequency instruments — epoch stats, queue depths).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

// ---------------------------------------------------------------------------
// Histogram

struct HistogramOptions {
  /// Smallest and largest finite values resolved by the log-scale
  /// buckets. Samples at or below `min` land in the first bucket;
  /// samples at or above `max` (infinity included) land in the
  /// overflow bucket, whose reported bound is `max`.
  double min = 1e-7;   ///< e.g. 100 ns for latency histograms (seconds)
  double max = 100.0;  ///< e.g. 100 s
  /// Number of log-scale buckets between min and max. 64 buckets over
  /// 9 decades keeps the relative quantile error under ~40% per decade
  /// /buckets — the default resolves ~1.38x per bucket.
  std::size_t buckets = 64;
};

/// Fixed-bucket log-scale histogram. record() is: one classification
/// (a log + clamp), one relaxed fetch_add, one CAS-add into the sum —
/// no allocation, no locks. Quantiles interpolate within the landing
/// bucket, so their relative error is bounded by the bucket growth
/// factor.
///
/// Edge-case contract (tested):
///  - NaN samples are counted in invalid() and excluded from the
///    distribution entirely;
///  - zero and negative samples (log-scale cannot place them) land in
///    the first bucket and are additionally counted in underflow();
///  - +infinity and samples >= max land in the overflow bucket and are
///    counted in overflow(); quantiles then report at most `max`;
///  - a sample exactly on a bucket boundary lands in the bucket whose
///    *upper* bound it is (buckets are lower-exclusive, upper-
///    inclusive, matching the Prometheus `le` cumulative convention).
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  void record(double v);

  [[nodiscard]] std::uint64_t count() const;    ///< finite-classified samples
  [[nodiscard]] double sum() const;
  [[nodiscard]] std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t invalid() const {
    return invalid_.load(std::memory_order_relaxed);
  }

  /// Quantile q in [0, 1] by cumulative bucket walk + linear
  /// interpolation inside the landing bucket. Empty histogram: 0.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p95() const { return percentile(0.95); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  [[nodiscard]] std::size_t num_buckets() const { return counts_.size(); }
  /// Upper bound of bucket i (the Prometheus `le` value).
  [[nodiscard]] double bucket_bound(std::size_t i) const;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] const HistogramOptions& options() const { return opts_; }

 private:
  [[nodiscard]] std::size_t bucket_of(double v) const;

  HistogramOptions opts_;
  double inv_log_growth_ = 1.0;  ///< 1 / ln(growth)
  double log_min_ = 0.0;
  /// counts_[0..buckets-1] are the log-scale buckets; the last entry
  /// (index buckets) is the overflow bucket.
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> invalid_{0};
};

// ---------------------------------------------------------------------------
// Registry

/// Point-in-time reading of one instrument, for exports and the flight
/// recorder's delta snapshots.
struct MetricSample {
  std::string name;
  Labels labels;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  double value = 0.0;              ///< counter value or gauge reading
  const Histogram* hist = nullptr; ///< kHistogram only (borrowed)
};

/// Owns every instrument it hands out; pointers returned by
/// counter()/gauge()/histogram() are stable for the registry's
/// lifetime (deque-backed storage, registration under one mutex).
/// Re-registering the same (name, labels) returns the same instrument,
/// so process-wide totals aggregate naturally across component
/// instances. Components preregister at construction; hot paths never
/// take the registry lock. A counter series also sums the live
/// InstanceCounters attached to it.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every component publishes to by
  /// default. Tests that need isolation construct their own Registry.
  static Registry& global();

  Counter* counter(const std::string& name, Labels labels = {});
  Gauge* gauge(const std::string& name, Labels labels = {});
  Histogram* histogram(const std::string& name, Labels labels = {},
                       HistogramOptions opts = {});

  /// Every registered instrument, in registration order.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Prometheus text exposition format (v0.0.4): `# TYPE` headers,
  /// counters suffixed _total if not already, histograms expanded to
  /// cumulative _bucket{le=...}/_sum/_count series.
  [[nodiscard]] std::string prometheus_text() const;

  /// JSON snapshot: an array of {name, labels, kind, value | {p50,...}}
  /// objects (obs::JsonWriter underneath).
  [[nodiscard]] std::string json() const;

 private:
  friend class InstanceCounter;

  struct Entry {
    std::string name;
    Labels labels;
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
    std::vector<const Counter*> instances;  ///< live attached counters
  };

  Entry* find_or_add(const std::string& name, const Labels& labels,
                     MetricSample::Kind kind);
  /// Adds `c` to the (name, labels) counter series.
  void attach(const Counter* c, const std::string& name,
              const Labels& labels);
  /// Removes `c` from every series it is attached to, folding its final
  /// value into each series' own counter.
  void detach(const Counter* c);

  mutable std::mutex mu_;
  /// deque semantics via stable unique_ptrs inside a vector.
  std::vector<std::unique_ptr<Entry>> entries_;
};

// ---------------------------------------------------------------------------
// InstanceCounter

/// A counter owned by one component instance (a server, a cache, a
/// control loop) and exported through a Registry under (name, labels),
/// so the instance's stats() and the export read one storage location.
/// inc() touches only the member. The destructor folds the final value
/// into the registry's counter, so process totals stay monotone as
/// instances come and go. The registry must outlive the instance.
class InstanceCounter {
 public:
  /// `also_unlabeled`: export under the unlabeled (name) series too —
  /// a per-reason counter that adds into its family's total.
  explicit InstanceCounter(const std::string& name, const Labels& labels = {},
                           Registry& registry = Registry::global(),
                           bool also_unlabeled = false);
  ~InstanceCounter();

  InstanceCounter(const InstanceCounter&) = delete;
  InstanceCounter& operator=(const InstanceCounter&) = delete;

  void inc(std::uint64_t n = 1) { counter_.inc(n); }
  [[nodiscard]] std::uint64_t value() const { return counter_.value(); }

 private:
  Counter counter_;
  Registry& registry_;
};

}  // namespace wishbone::obs
