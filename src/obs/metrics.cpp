#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "obs/json.hpp"
#include "util/assert.hpp"

namespace wishbone::obs {

// ---------------------------------------------------------------------------
// Counter

std::size_t Counter::shard_index() {
  // Each thread hashes its id once and keeps the shard in a
  // thread_local; collisions only cost some shard sharing, never
  // correctness.
  static thread_local const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return idx;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(HistogramOptions opts) : opts_(opts) {
  WB_ASSERT_MSG(opts_.min > 0.0 && opts_.max > opts_.min,
                "Histogram: need 0 < min < max");
  WB_ASSERT_MSG(opts_.buckets >= 1, "Histogram: need at least one bucket");
  log_min_ = std::log(opts_.min);
  const double log_growth =
      (std::log(opts_.max) - log_min_) / static_cast<double>(opts_.buckets);
  inv_log_growth_ = 1.0 / log_growth;
  // +1: trailing overflow bucket.
  counts_ = std::vector<std::atomic<std::uint64_t>>(opts_.buckets + 1);
}

std::size_t Histogram::bucket_of(double v) const {
  // Buckets are (lower, upper]: bound_of(i) = min * growth^(i+1), and a
  // sample exactly on a bound belongs to the bucket it bounds. ceil of
  // the log position minus one gives that, with the first bucket also
  // absorbing everything <= min.
  if (v <= opts_.min) return 0;
  if (v >= opts_.max) return opts_.buckets;  // overflow bucket
  const double pos = (std::log(v) - log_min_) * inv_log_growth_;
  double idx = std::ceil(pos) - 1.0;
  if (idx < 0.0) idx = 0.0;
  auto i = static_cast<std::size_t>(idx);
  // Guard against log() rounding placing a near-max sample past the
  // last regular bucket.
  if (i >= opts_.buckets) i = opts_.buckets - 1;
  return i;
}

void Histogram::record(double v) {
  if (std::isnan(v)) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (v <= 0.0) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
    counts_[0].fetch_add(1, std::memory_order_relaxed);
    // Zero/negative contribute nothing to sum (they are clamped into
    // the first bucket for counting purposes only).
    return;
  }
  const std::size_t i = bucket_of(v);
  if (i == opts_.buckets) overflow_.fetch_add(1, std::memory_order_relaxed);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  const double clamped = std::isinf(v) ? opts_.max : v;
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + clamped,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::bucket_bound(std::size_t i) const {
  if (i >= opts_.buckets) return opts_.max;  // overflow bucket reports max
  const double log_growth = 1.0 / inv_log_growth_;
  return std::exp(log_min_ + log_growth * static_cast<double>(i + 1));
}

double Histogram::percentile(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  // Rank of the q-th sample (1-based), then walk the cumulative counts.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (cum + c >= target) {
      const double lo = i == 0 ? 0.0 : bucket_bound(i - 1);
      const double hi = bucket_bound(i);
      // Interpolate by rank position inside the bucket.
      const double frac =
          static_cast<double>(target - cum) / static_cast<double>(c);
      return lo + (hi - lo) * frac;
    }
    cum += c;
  }
  return opts_.max;
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

Registry::Entry* Registry::find_or_add(const std::string& name,
                                       const Labels& labels,
                                       MetricSample::Kind kind) {
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels) {
      WB_ASSERT_MSG(e->kind == kind,
                    "Registry: metric re-registered with a different kind");
      return e.get();
    }
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->labels = labels;
  e->kind = kind;
  entries_.push_back(std::move(e));
  return entries_.back().get();
}

Counter* Registry::counter(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_add(name, labels, MetricSample::Kind::kCounter);
  if (!e->counter) e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* Registry::gauge(const std::string& name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_add(name, labels, MetricSample::Kind::kGauge);
  if (!e->gauge) e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

Histogram* Registry::histogram(const std::string& name, Labels labels,
                               HistogramOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_add(name, labels, MetricSample::Kind::kHistogram);
  if (!e->hist) e->hist = std::make_unique<Histogram>(opts);
  return e->hist.get();
}

void Registry::attach(const Counter* c, const std::string& name,
                      const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_add(name, labels, MetricSample::Kind::kCounter);
  if (!e->counter) e->counter = std::make_unique<Counter>();
  e->instances.push_back(c);
}

void Registry::detach(const Counter* c) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    auto it = std::find(e->instances.begin(), e->instances.end(), c);
    if (it == e->instances.end()) continue;
    e->counter->inc(c->value());
    e->instances.erase(it);
  }
}

std::vector<MetricSample> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.labels = e->labels;
    s.kind = e->kind;
    switch (e->kind) {
      case MetricSample::Kind::kCounter:
        s.value = static_cast<double>(e->counter->value());
        for (const Counter* c : e->instances)
          s.value += static_cast<double>(c->value());
        break;
      case MetricSample::Kind::kGauge:
        s.value = e->gauge->value();
        break;
      case MetricSample::Kind::kHistogram:
        s.hist = e->hist.get();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// InstanceCounter

InstanceCounter::InstanceCounter(const std::string& name,
                                 const Labels& labels, Registry& registry,
                                 bool also_unlabeled)
    : registry_(registry) {
  if (also_unlabeled) registry_.attach(&counter_, name, {});
  registry_.attach(&counter_, name, labels);
}

InstanceCounter::~InstanceCounter() { registry_.detach(&counter_); }

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Renders `{k1="v1",k2="v2"}` (with optional extra trailing label) or
/// an empty string when there are no labels.
std::string prom_labels(const Labels& labels, const std::string& extra_key = {},
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  auto emit = [&](const std::string& k, const std::string& v) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    // Prometheus label escaping matches JSON for quote/backslash; the
    // repo never puts newlines or control chars in label values.
    out += json_escape(v);
    out += '"';
  };
  for (const Label& l : labels) emit(l.key, l.value);
  if (!extra_key.empty()) emit(extra_key, extra_value);
  out += '}';
  return out;
}

}  // namespace

std::string Registry::prometheus_text() const {
  const std::vector<MetricSample> samples = snapshot();
  std::string out;
  // # TYPE headers must appear once per metric name; track the last
  // emitted name (entries with the same name but different labels are
  // registered contiguously in practice, but do not rely on it).
  std::vector<std::string> typed;
  auto need_type = [&](const std::string& name) {
    for (const std::string& t : typed)
      if (t == name) return false;
    typed.push_back(name);
    return true;
  };
  for (const MetricSample& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter: {
        std::string name = s.name;
        if (name.size() < 6 || name.compare(name.size() - 6, 6, "_total") != 0)
          name += "_total";
        if (need_type(name))
          out += "# TYPE " + name + " counter\n";
        out += name + prom_labels(s.labels) + " " +
               format_double(s.value) + "\n";
        break;
      }
      case MetricSample::Kind::kGauge: {
        if (need_type(s.name)) out += "# TYPE " + s.name + " gauge\n";
        out += s.name + prom_labels(s.labels) + " " + format_double(s.value) +
               "\n";
        break;
      }
      case MetricSample::Kind::kHistogram: {
        const Histogram& h = *s.hist;
        if (need_type(s.name)) out += "# TYPE " + s.name + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.num_buckets(); ++i) {
          cum += h.bucket_count(i);
          out += s.name + "_bucket" +
                 prom_labels(s.labels, "le", format_double(h.bucket_bound(i))) +
                 " " + std::to_string(cum) + "\n";
        }
        out += s.name + "_bucket" + prom_labels(s.labels, "le", "+Inf") + " " +
               std::to_string(cum) + "\n";
        out += s.name + "_sum" + prom_labels(s.labels) + " " +
               format_double(h.sum()) + "\n";
        out += s.name + "_count" + prom_labels(s.labels) + " " +
               std::to_string(cum) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::json() const {
  const std::vector<MetricSample> samples = snapshot();
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.key("metrics").begin_array();
  for (const MetricSample& s : samples) {
    w.begin_object();
    w.field("name", std::string_view(s.name));
    if (!s.labels.empty()) {
      w.key("labels").begin_object();
      for (const Label& l : s.labels)
        w.field(std::string_view(l.key), std::string_view(l.value));
      w.end_object();
    }
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        w.field("kind", "counter");
        w.field("value", static_cast<std::uint64_t>(s.value));
        break;
      case MetricSample::Kind::kGauge:
        w.field("kind", "gauge");
        w.field("value", s.value);
        break;
      case MetricSample::Kind::kHistogram: {
        const Histogram& h = *s.hist;
        w.field("kind", "histogram");
        w.field("count", h.count());
        w.field("sum", h.sum());
        w.field("p50", h.p50());
        w.field("p95", h.p95());
        w.field("p99", h.p99());
        w.field("underflow", h.underflow());
        w.field("overflow", h.overflow());
        w.field("invalid", h.invalid());
        break;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace wishbone::obs
