// The telemetry plane (src/obs): the shared JSON writer, the metrics
// registry (counters, gauges, log-scale histograms, exporters), the
// request-scoped tracer, and the flight recorder — plus the two
// contracts the rest of the repo depends on: a serve request produces
// one connected trace from submit to basis load, and none of this
// instrumentation perturbs a deterministic solve or fleet replay.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/radio.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "runtime/fleet_sim.hpp"
#include "runtime/repartitioner.hpp"
#include "serve/server.hpp"
#include "test_helpers.hpp"

using namespace wishbone;

namespace {

/// Structural JSON sanity: braces/brackets balance outside string
/// literals and the document ends closed. Not a parser — enough to
/// catch a writer that drops a close or forgets to escape a quote.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

/// Tracers cache a thread-local ring pointer keyed by tracer address,
/// so test-local tracers live on the heap for the process lifetime —
/// two stack instances at the same address would alias each other's
/// rings. Kept reachable through a static owner so LeakSanitizer does
/// not flag them.
obs::Tracer& fresh_tracer() {
  static auto* keep = new std::vector<std::unique_ptr<obs::Tracer>>();
  keep->push_back(std::make_unique<obs::Tracer>());
  return *keep->back();
}

}  // namespace

// --------------------------------------------------------------- ObsJson

TEST(ObsJson, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape(std::string("n\nl\x01", 4)), "n\\u000al\\u0001");
  EXPECT_EQ(obs::json_escape("utf8 → ok"), "utf8 → ok");
}

TEST(ObsJson, CompactNestedContainers) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("a").begin_array();
  w.value(1).value(2.5).value("x");
  w.end_array();
  w.key("b").begin_object();
  w.field("c", true);
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.take(), R"({"a":[1,2.5,"x"],"b":{"c":true}})");
}

TEST(ObsJson, PrettyMatchesBenchHouseStyle) {
  obs::JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.field("a", 1);
  w.key("b").begin_array();
  w.value(2);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.take(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(ObsJson, WriterIsReusableAfterTake) {
  obs::JsonWriter w;
  w.begin_object();
  w.end_object();
  EXPECT_EQ(w.take(), "{}");
  w.begin_array();
  w.value(std::int64_t{-7});
  w.end_array();
  EXPECT_EQ(w.take(), "[-7]");
}

// ------------------------------------------------------------ ObsMetrics

TEST(ObsMetrics, CounterSumsConcurrentIncrements) {
  obs::Counter c;
  constexpr std::size_t kThreads = 8, kEach = 5000;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (std::size_t i = 0; i < kEach; ++i) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  c.inc(42);
  EXPECT_EQ(c.value(), kThreads * kEach + 42);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(ObsMetrics, HistogramEdgeCases) {
  // min=1, max=100, 2 buckets: bounds 10 and 100, growth 10x.
  obs::Histogram h(obs::HistogramOptions{1.0, 100.0, 2});
  EXPECT_EQ(h.num_buckets(), 3u);  // two log buckets + overflow
  EXPECT_NEAR(h.bucket_bound(0), 10.0, 1e-9);
  EXPECT_NEAR(h.bucket_bound(1), 100.0, 1e-9);
  EXPECT_EQ(h.bucket_bound(2), 100.0);  // overflow reports max

  h.record(0.0);    // underflow: first bucket, no sum
  h.record(-3.0);   // underflow
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.sum(), 0.0);

  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.invalid(), 1u);
  EXPECT_EQ(h.count(), 2u);  // NaN excluded entirely

  h.record(std::numeric_limits<double>::infinity());  // clamped to max
  h.record(1e9);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 100.0 + 1e9);

  // Boundary samples land in the bucket whose upper bound they hit
  // (lower-exclusive, upper-inclusive — the Prometheus `le` rule).
  h.record(10.0);
  EXPECT_EQ(h.bucket_count(0), 3u);
  h.record(10.001);
  EXPECT_EQ(h.bucket_count(1), 1u);
  h.record(1.0);  // exactly min: first bucket, not underflow
  EXPECT_EQ(h.bucket_count(0), 4u);
  EXPECT_EQ(h.underflow(), 2u);
}

TEST(ObsMetrics, HistogramPercentilesInterpolate) {
  obs::Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0.0);

  // Power-of-two bounds: 2, 4, 8, ..., 1024.
  obs::Histogram h(obs::HistogramOptions{1.0, 1024.0, 10});
  for (int i = 0; i < 1000; ++i) h.record(3.0);
  // Every sample sits in (2, 4]; quantiles interpolate inside it.
  EXPECT_GT(h.p50(), 2.0);
  EXPECT_LE(h.p50(), 4.0);
  EXPECT_GT(h.p99(), h.p50());
  EXPECT_LE(h.p99(), 4.0);

  for (int i = 0; i < 1000; ++i) h.record(700.0);  // (512, 1024]
  EXPECT_LE(h.p50(), 4.0);    // half the mass is still low
  EXPECT_GT(h.p95(), 512.0);  // the tail is high
  EXPECT_LE(h.p99(), 1024.0);
}

TEST(ObsMetrics, HistogramConcurrentRecordIsLossless) {
  obs::Histogram h(obs::HistogramOptions{0.5, 8.0, 8});
  // kEach divisible by 3 so each of the values 1.0/2.0/3.0 appears
  // exactly kEach/3 times per thread and the expected sum is exact.
  constexpr std::size_t kThreads = 4, kEach = 9999;
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kEach; ++i)
        h.record(1.0 + static_cast<double>((t + i) % 3));
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), kThreads * kEach);
  // 1.0/2.0/3.0 are exactly representable and the total is far below
  // 2^53, so the CAS-accumulated sum must be exact.
  EXPECT_DOUBLE_EQ(h.sum(), 2.0 * kThreads * kEach);
}

TEST(ObsMetrics, RegistryIsIdempotentPerNameAndLabels) {
  obs::Registry reg;
  obs::Counter* a = reg.counter("x_total");
  EXPECT_EQ(a, reg.counter("x_total"));
  EXPECT_NE(a, reg.counter("x_total", {{"rung", "fresh"}}));
  obs::Gauge* g = reg.gauge("y");
  EXPECT_EQ(g, reg.gauge("y"));
  obs::Histogram* h = reg.histogram("z_seconds");
  EXPECT_EQ(h, reg.histogram("z_seconds"));

  a->inc(2);
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "x_total");  // registration order
  EXPECT_EQ(samples[0].value, 2.0);
}

TEST(ObsMetrics, PrometheusExportShape) {
  obs::Registry reg;
  reg.counter("wishbone_test_requests")->inc(3);
  reg.counter("wishbone_test_fails_total", {{"reason", "time\"out"}})->inc();
  reg.gauge("wishbone_test_depth")->set(1.5);
  obs::Histogram* h =
      reg.histogram("wishbone_test_seconds", {}, {1.0, 100.0, 2});
  h->record(5.0);
  h->record(50.0);
  h->record(1e9);

  const std::string text = reg.prometheus_text();
  // Counters gain _total exactly once; the TYPE header matches.
  EXPECT_NE(text.find("# TYPE wishbone_test_requests_total counter\n"
                      "wishbone_test_requests_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("wishbone_test_fails_total{reason=\"time\\\"out\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE wishbone_test_depth gauge\n"
                      "wishbone_test_depth 1.5\n"),
            std::string::npos);
  // Histogram: cumulative buckets, +Inf equals _count. Bounds are
  // exp(log(...)) results — render them the way the exporter does
  // instead of assuming round literals.
  auto le_line = [&](std::size_t i, const char* cum) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", h->bucket_bound(i));
    return "wishbone_test_seconds_bucket{le=\"" + std::string(buf) + "\"} " +
           cum + "\n";
  };
  EXPECT_NE(text.find("# TYPE wishbone_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find(le_line(0, "1")), std::string::npos);
  EXPECT_NE(text.find(le_line(1, "2")), std::string::npos);
  EXPECT_NE(text.find("wishbone_test_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("wishbone_test_seconds_count 3\n"), std::string::npos);
}

TEST(ObsMetrics, BnbReentryCountersExport) {
  // A solve must leave the per-mode re-entry and fallback counters
  // registered on the global registry, with valid Prometheus label
  // syntax (check_obs_export.py gates the same lines out of the serve
  // bench's full-registry dump). Seed 5's closure breaks the CPU
  // budget, so the solve runs branch and bound.
  const auto p = wbtest::random_problem(5);
  ASSERT_FALSE(wbtest::closure_fits(p));
  const auto r = partition::solve_partition(p, partition::PartitionOptions{});
  ASSERT_TRUE(r.feasible);

  const std::string text = obs::Registry::global().prometheus_text();
  for (const char* needle :
       {"wishbone_bnb_reentries_total{mode=\"dual\"}",
        "wishbone_bnb_reentries_total{mode=\"phase1\"}",
        "wishbone_bnb_phase1_fallbacks_total"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  EXPECT_GT(r.solver.lp_iterations, 0u);
}

TEST(ObsMetrics, PartitionSolvePathCountersExport) {
  // Each solve_partition call counts once, under the path that
  // answered it: seed 7's closure fits, seed 5's breaks a budget.
  const std::string name = "wishbone_partition_solves";
  const obs::Labels closure{{"path", "closure"}}, bnb{{"path", "bnb"}};
  const auto fits = wbtest::random_problem(7);
  const auto binds = wbtest::random_problem(5);
  ASSERT_TRUE(wbtest::closure_fits(fits));
  ASSERT_FALSE(wbtest::closure_fits(binds));
  (void)partition::solve_partition(fits);  // registers both series
  const double closure0 = wbtest::exported(name, closure);
  const double bnb0 = wbtest::exported(name, bnb);

  const auto a = partition::solve_partition(fits);
  EXPECT_EQ(wbtest::exported(name, closure) - closure0, 1.0);
  EXPECT_EQ(wbtest::exported(name, bnb) - bnb0, 0.0);
  EXPECT_EQ(a.solver.lp_iterations, 0u);
  const auto b = partition::solve_partition(binds);
  EXPECT_EQ(wbtest::exported(name, closure) - closure0, 1.0);
  EXPECT_EQ(wbtest::exported(name, bnb) - bnb0, 1.0);
  EXPECT_GT(b.solver.lp_iterations, 0u);

  const std::string text = obs::Registry::global().prometheus_text();
  for (const char* needle :
       {"# TYPE wishbone_partition_solves_total counter\n",
        "wishbone_partition_solves_total{path=\"closure\"} ",
        "wishbone_partition_solves_total{path=\"bnb\"} "}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(ObsMetrics, ServeWarmBasisRejectReasonCountersExport) {
  // One serve solve registers the reason-labeled reject breakdown
  // (kNone excluded: a loaded basis increments nothing).
  serve::ServeOptions so;
  so.workers = 0;
  serve::PartitionServer server(so);
  auto fut = server.submit([] {
    serve::SolveRequest req;
    req.problem = wbtest::random_problem(3);
    req.platform_id = "obs_reject_probe";
    return req;
  }());
  ASSERT_TRUE(server.run_one());
  ASSERT_TRUE(fut.get().result->feasible);

  const std::string text = obs::Registry::global().prometheus_text();
  for (const char* needle :
       {"wishbone_serve_warm_basis_rejected_total{reason=\"shape\"}",
        "wishbone_serve_warm_basis_rejected_total{reason=\"structure\"}",
        "wishbone_serve_warm_basis_rejected_total{reason=\"singular\"}"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(ObsMetrics, JsonExportIsWellFormed) {
  obs::Registry reg;
  reg.counter("a_total")->inc();
  reg.gauge("b")->set(2.0);
  reg.histogram("c_seconds")->record(0.1);
  const std::string j = reg.json();
  EXPECT_TRUE(json_balanced(j));
  EXPECT_NE(j.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\": \"gauge\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(j.find("\"p99\""), std::string::npos);
}

// ----------------------------------------------------- ObsInstanceCounter

TEST(ObsInstanceCounter, ExportSumsLiveInstancesAndFoldsOnDestroy) {
  obs::Registry reg;
  reg.counter("wishbone_test_events")->inc(5);
  auto a = std::make_unique<obs::InstanceCounter>("wishbone_test_events",
                                                  obs::Labels{}, reg);
  obs::InstanceCounter b("wishbone_test_events", {}, reg);
  a->inc(2);
  b.inc(3);
  // Each instance reads only its own events; the one series reads all.
  EXPECT_EQ(a->value(), 2u);
  EXPECT_EQ(b.value(), 3u);
  ASSERT_EQ(reg.snapshot().size(), 1u);
  EXPECT_EQ(reg.snapshot()[0].value, 10.0);

  // Destroying an instance folds its count into the registry: the
  // export does not move, so a recorder spanning it sees no delta.
  obs::FlightRecorder rec(4, 0, &reg, &fresh_tracer());
  a.reset();
  EXPECT_EQ(reg.snapshot()[0].value, 10.0);
  rec.trigger(1.0, "instance_destroyed");
  EXPECT_TRUE(rec.snapshots().at(0).deltas.empty());

  b.inc();
  EXPECT_NE(reg.prometheus_text().find("wishbone_test_events_total 11\n"),
            std::string::npos);
}

TEST(ObsInstanceCounter, AlsoUnlabeledAddsIntoTheFamilyTotal) {
  obs::Registry reg;
  obs::InstanceCounter shape("wishbone_test_rejected", {{"reason", "shape"}},
                             reg, /*also_unlabeled=*/true);
  obs::InstanceCounter singular("wishbone_test_rejected",
                                {{"reason", "singular"}}, reg);
  shape.inc(2);
  singular.inc();
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);  // registration order
  EXPECT_TRUE(samples[0].labels.empty());
  EXPECT_EQ(samples[0].value, 2.0);  // the total counts shape only
  EXPECT_EQ(samples[1].labels, (obs::Labels{{"reason", "shape"}}));
  EXPECT_EQ(samples[1].value, 2.0);
  EXPECT_EQ(samples[2].value, 1.0);
}

// -------------------------------------------------------------- ObsTrace

namespace {
std::uint64_t g_fake_now_ns = 0;
std::uint64_t fake_clock() { return g_fake_now_ns; }
}  // namespace

TEST(ObsTrace, DisabledTracerIsANoOp) {
  obs::Tracer& t = fresh_tracer();
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.maybe_start_trace().sampled());
  obs::Span s = t.span("never", t.maybe_start_trace());
  EXPECT_FALSE(s.sampled());
  s.finish();
  EXPECT_TRUE(t.collect().empty());
  // force_trace works even when disabled (post-mortem captures).
  EXPECT_TRUE(t.force_trace().sampled());
}

TEST(ObsTrace, CounterBasedSampling) {
  obs::Tracer& t = fresh_tracer();
  t.enable(/*sample_every_n=*/4);
  std::size_t sampled = 0;
  for (int i = 0; i < 8; ++i) sampled += t.maybe_start_trace().sampled();
  EXPECT_EQ(sampled, 2u);  // calls 0 and 4: deterministic, never random
}

TEST(ObsTrace, SpanNestingAndInjectedClock) {
  obs::Tracer& t = fresh_tracer();
  t.enable(1);
  t.set_clock(&fake_clock);
  g_fake_now_ns = 1000;

  const obs::TraceContext root = t.force_trace();
  obs::Span outer = t.span("outer", root);
  g_fake_now_ns = 2000;
  obs::Span inner = t.span("inner", outer.context());
  g_fake_now_ns = 2500;
  inner.finish();
  g_fake_now_ns = 4000;
  outer.finish();
  outer.finish();  // idempotent: must not double-record

  const auto spans = t.collect();
  ASSERT_EQ(spans.size(), 2u);
  const obs::SpanRecord& in = spans[0];
  const obs::SpanRecord& out = spans[1];
  EXPECT_STREQ(in.name, "inner");
  EXPECT_STREQ(out.name, "outer");
  EXPECT_EQ(in.trace_id, root.trace_id);
  EXPECT_EQ(in.parent_id, out.span_id);
  EXPECT_EQ(out.parent_id, 0u);  // child of the trace root
  EXPECT_EQ(in.ts_ns, 2000u);
  EXPECT_EQ(in.dur_ns, 500u);
  EXPECT_EQ(out.ts_ns, 1000u);
  EXPECT_EQ(out.dur_ns, 3000u);
  t.set_clock(nullptr);
}

TEST(ObsTrace, RecordSpanParentsRetroactively) {
  obs::Tracer& t = fresh_tracer();
  t.enable(1);
  const obs::TraceContext root = t.force_trace();
  const std::uint64_t id = t.record_span("queue", root, 10, 20);
  EXPECT_GT(id, 0u);
  // An unsampled parent records nothing.
  EXPECT_EQ(t.record_span("queue", obs::TraceContext{}, 10, 20), 0u);
  const auto spans = t.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span_id, id);
  EXPECT_EQ(spans[0].ts_ns, 10u);
  EXPECT_EQ(spans[0].dur_ns, 20u);
}

TEST(ObsTrace, RingWrapsKeepingMostRecentWhileASpanIsOpen) {
  obs::Tracer& t = fresh_tracer();
  t.enable(1, /*ring_capacity=*/4);
  const obs::TraceContext root = t.force_trace();
  obs::Span open_span = t.span("still_open", root);  // survives the wrap
  for (int i = 0; i < 10; ++i) {
    obs::Span s = t.span("burst", open_span.context());
  }
  auto spans = t.collect();
  ASSERT_EQ(spans.size(), 4u);  // ring holds only the most recent window
  for (const auto& s : spans) EXPECT_STREQ(s.name, "burst");
  // Oldest-first within the ring.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LT(spans[i - 1].span_id, spans[i].span_id);

  // The open span finishes after the wrap and is recorded normally.
  open_span.finish();
  spans = t.collect();
  EXPECT_STREQ(spans.back().name, "still_open");

  t.clear();
  EXPECT_TRUE(t.collect().empty());
}

TEST(ObsTrace, DumpTefIsWellFormed) {
  obs::Tracer& t = fresh_tracer();
  t.enable(1);
  obs::Span s = t.span("phase \"x\"", t.force_trace());
  s.finish();
  const std::string tef = t.dump_tef();
  EXPECT_TRUE(json_balanced(tef));
  EXPECT_NE(tef.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tef.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(tef.find("phase \\\"x\\\""), std::string::npos);
}

// ----------------------------------------------------- ObsFlightRecorder

TEST(ObsFlightRecorder, CapturesDeltasSinceLastTrigger) {
  obs::Registry reg;
  obs::Tracer& tracer = fresh_tracer();
  obs::Counter* c = reg.counter("wishbone_test_events");
  obs::Gauge* g = reg.gauge("wishbone_test_level");
  reg.counter("wishbone_test_untouched");
  c->inc(5);
  g->set(7.0);

  obs::FlightRecorder rec(/*capacity=*/8, /*max_spans=*/4, &reg, &tracer);
  rec.rebaseline();  // reference point: 5 / 7.0
  c->inc(2);
  rec.trigger(1.0, "divergence", "detail text");
  c->inc(3);
  rec.trigger(2.0, "rung_transition");

  const auto snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].trigger, "divergence");
  EXPECT_EQ(snaps[0].detail, "detail text");
  ASSERT_EQ(snaps[0].deltas.size(), 2u);  // untouched counter omitted
  EXPECT_EQ(snaps[0].deltas[0].name, "wishbone_test_events");
  EXPECT_EQ(snaps[0].deltas[0].delta, 2.0);
  // Gauges are levels: reported absolute, identically in both windows.
  EXPECT_EQ(snaps[0].deltas[1].name, "wishbone_test_level");
  EXPECT_EQ(snaps[0].deltas[1].delta, 7.0);
  EXPECT_EQ(snaps[1].deltas[0].delta, 3.0);
  EXPECT_EQ(snaps[1].deltas[1].delta, 7.0);
}

TEST(ObsFlightRecorder, RingIsBoundedOldestFirst) {
  obs::Registry reg;
  obs::FlightRecorder rec(/*capacity=*/2, /*max_spans=*/4, &reg,
                          &fresh_tracer());
  for (int i = 1; i <= 5; ++i)
    rec.trigger(static_cast<double>(i), "t" + std::to_string(i));
  const auto snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].trigger, "t4");
  EXPECT_EQ(snaps[1].trigger, "t5");
  EXPECT_EQ(rec.size(), 2u);
}

TEST(ObsFlightRecorder, KeepsMostRecentSpansAndDumps) {
  obs::Registry reg;
  obs::Tracer& tracer = fresh_tracer();
  tracer.enable(1);
  obs::FlightRecorder rec(/*capacity=*/4, /*max_spans=*/2, &reg, &tracer);
  for (int i = 0; i < 5; ++i) {
    obs::Span s = tracer.span("work", tracer.force_trace());
  }
  rec.trigger(3.5, "divergence", "class 1: fresh -> stale");
  const auto snaps = rec.snapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].spans.size(), 2u);  // most recent two only

  const std::string j = rec.dump_json();
  EXPECT_TRUE(json_balanced(j));
  EXPECT_NE(j.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(j.find("class 1: fresh -> stale"), std::string::npos);
  EXPECT_NE(j.find("\"sim_time\": 3.5"), std::string::npos);
}

// ---------------------------------------------------------- ObsServeTrace

namespace {

serve::SolveRequest obs_request(const partition::PartitionProblem& p) {
  serve::SolveRequest req;
  req.problem = p;
  req.platform_id = "obs_mote";
  return req;
}

partition::PartitionProblem scale_problem(partition::PartitionProblem p,
                                          double f) {
  for (auto& v : p.vertices) v.cpu *= f;
  for (auto& e : p.edges) e.bandwidth *= f;
  return p;
}

/// Spans of one trace, by name (assumes each name appears once).
const obs::SpanRecord* find_span(const std::vector<obs::SpanRecord>& spans,
                                 std::uint64_t trace_id, const char* name) {
  for (const auto& s : spans) {
    if (s.trace_id == trace_id && std::string(s.name) == name) return &s;
  }
  return nullptr;
}

}  // namespace

TEST(ObsServeTrace, SubmitProducesOneConnectedTrace) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable(/*sample_every_n=*/1);

  serve::ServeOptions so;
  so.workers = 0;  // pump mode: the solve runs on this thread
  serve::PartitionServer server(so);
  const auto p = wbtest::random_problem(5);
  // Both solves run on the simplex: the closure breaks the CPU budget.
  ASSERT_FALSE(wbtest::closure_fits(p));
  ASSERT_FALSE(wbtest::closure_fits(scale_problem(p, 1.25)));

  auto f1 = server.submit(obs_request(p));
  ASSERT_TRUE(server.run_one());
  ASSERT_TRUE(f1.get().result->feasible);

  // Second request: same platform, drifted profile — the cache donates
  // a warm basis, so this trace also carries the basis.load leg.
  auto f2 = server.submit(obs_request(scale_problem(p, 1.25)));
  ASSERT_TRUE(server.run_one());
  const serve::SolveResponse warm = f2.get();
  ASSERT_TRUE(warm.result->feasible);
  EXPECT_TRUE(warm.result->solver.warm_basis_loaded);

  const auto spans = tracer.collect();
  // The two submits opened the two root traces, in submission order —
  // recover their ids rather than assuming a fresh id sequence.
  std::vector<std::uint64_t> traces;
  for (const auto& s : spans) {
    if (std::string(s.name) == "serve.submit") traces.push_back(s.trace_id);
  }
  ASSERT_EQ(traces.size(), 2u);
  const std::uint64_t t1 = traces[0], t2 = traces[1];
  const obs::SpanRecord* submit = find_span(spans, t1, "serve.submit");
  ASSERT_NE(submit, nullptr);

  // Trace 1: submit -> queue -> solve -> bnb.search -> bnb.node, one
  // causal chain stitched across the retroactive queue span.
  const obs::SpanRecord* queue = find_span(spans, t1, "serve.queue");
  const obs::SpanRecord* solve = find_span(spans, t1, "serve.solve");
  const obs::SpanRecord* search = find_span(spans, t1, "bnb.search");
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(solve, nullptr);
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(submit->parent_id, 0u);
  EXPECT_EQ(queue->parent_id, submit->span_id);
  EXPECT_EQ(solve->parent_id, queue->span_id);
  EXPECT_EQ(search->parent_id, solve->span_id);
  bool node_under_search = false;
  for (const auto& s : spans) {
    if (s.trace_id == t1 && std::string(s.name) == "bnb.node")
      node_under_search |= s.parent_id == search->span_id;
  }
  EXPECT_TRUE(node_under_search);

  // Trace 2 adds the warm-basis load under its own search span.
  const obs::SpanRecord* search2 = find_span(spans, t2, "bnb.search");
  const obs::SpanRecord* load2 = find_span(spans, t2, "basis.load");
  ASSERT_NE(search2, nullptr);
  ASSERT_NE(load2, nullptr);
  EXPECT_EQ(load2->parent_id, search2->span_id);

  // And the whole thing dumps as loadable Trace Event Format.
  const std::string tef = tracer.dump_tef();
  EXPECT_TRUE(json_balanced(tef));
  EXPECT_NE(tef.find("\"name\":\"serve.submit\""), std::string::npos);
  EXPECT_NE(tef.find("\"name\":\"basis.load\""), std::string::npos);

  tracer.disable();
  tracer.clear();
}

TEST(ObsServeTrace, CoalescedFollowerMarksLeaderTrace) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable(/*sample_every_n=*/1);

  serve::ServeOptions so;
  so.workers = 0;  // pump mode: nothing solves until run_one
  serve::PartitionServer server(so);
  const auto p = wbtest::random_problem(5);

  // Leader enqueues; two identical submits pile onto its in-flight
  // batch before the pump runs it.
  auto lead = server.submit(obs_request(p));
  auto follow1 = server.submit(obs_request(p));
  auto follow2 = server.submit(obs_request(p));
  ASSERT_TRUE(server.run_one());
  ASSERT_TRUE(lead.get().result->feasible);
  EXPECT_EQ(follow1.get().source, serve::ResponseSource::kCoalesced);
  EXPECT_EQ(follow2.get().source, serve::ResponseSource::kCoalesced);

  const auto spans = tracer.collect();
  std::vector<std::uint64_t> roots;
  for (const auto& s : spans) {
    if (std::string(s.name) == "serve.submit") roots.push_back(s.trace_id);
  }
  // Every submit opens its own root span (followers included — their
  // submit is real work even when the solve is shared); the leader's is
  // the first.
  ASSERT_EQ(roots.size(), 3u);
  const obs::SpanRecord* submit = find_span(spans, roots[0], "serve.submit");
  ASSERT_NE(submit, nullptr);

  // The *leader's* trace carries one zero-duration serve.coalesced
  // marker per follower, parented on the leader's submit span, so a
  // sampled trace shows how many requests piled onto the in-flight
  // solve and when each one attached.
  std::size_t markers = 0;
  for (const auto& s : spans) {
    if (std::string(s.name) != "serve.coalesced") continue;
    ++markers;
    EXPECT_EQ(s.trace_id, roots[0]);
    EXPECT_EQ(s.parent_id, submit->span_id);
    EXPECT_EQ(s.dur_ns, 0u);
  }
  EXPECT_EQ(markers, 2u);

  tracer.disable();
  tracer.clear();
}

// -------------------------------------------------------- ObsDeterminism

TEST(ObsDeterminism, TracingDoesNotPerturbASolve) {
  const auto p = wbtest::random_problem(9);
  partition::PartitionOptions opts;

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.disable();
  const auto off = partition::solve_partition(p, opts);

  tracer.enable(/*sample_every_n=*/1);
  // The solver only opens spans when handed a sampled context.
  partition::PartitionOptions traced = opts;
  traced.mip.trace = tracer.force_trace();
  const auto on = partition::solve_partition(p, traced);
  tracer.disable();
  tracer.clear();

  EXPECT_EQ(off.feasible, on.feasible);
  EXPECT_EQ(off.objective, on.objective);  // bit-identical, not NEAR
  EXPECT_EQ(off.sides, on.sides);
  EXPECT_EQ(off.solver.nodes_explored, on.solver.nodes_explored);
  EXPECT_EQ(off.solver.lp_iterations, on.solver.lp_iterations);
}

TEST(ObsDeterminism, FleetReplayIsBitIdenticalWithRecorderAttached) {
  auto run = [](bool with_recorder) {
    serve::ServeOptions so;
    so.workers = 0;
    serve::PartitionServer server(so);

    partition::PartitionProblem p;
    auto add = [&](const char* name, double cpu, graph::Requirement req) {
      partition::ProblemVertex v;
      v.name = name;
      v.cpu = cpu;
      v.req = req;
      p.vertices.push_back(std::move(v));
      return p.vertices.size() - 1;
    };
    const auto src = add("src", 0.01, graph::Requirement::kNode);
    const auto filt = add("filter", 0.10, graph::Requirement::kMovable);
    const auto clas = add("classify", 0.30, graph::Requirement::kMovable);
    const auto sink = add("sink", 0.0, graph::Requirement::kServer);
    p.edges.push_back({src, filt, 40.0});
    p.edges.push_back({filt, clas, 10.0});
    p.edges.push_back({clas, sink, 2.0});
    p.cpu_budget = 1.0;
    p.net_budget = 100.0;
    p.check();

    runtime::FleetConfig fc;
    fc.num_nodes = 12;
    fc.num_classes = 2;
    fc.events_per_sec = 2.0;
    fc.epoch_s = 5.0;
    fc.epochs = 8;
    fc.radio = net::wifi_radio();
    fc.drift_step = 0.05;
    fc.cpu_trend_per_epoch = 0.08;
    fc.seed = 77;
    runtime::FleetSim fleet(p, fc);

    runtime::RepartitionerConfig rc;
    rc.pump_server = true;
    rc.seed = 11;
    runtime::Repartitioner rep(server, fleet, rc);
    obs::FlightRecorder recorder;
    if (with_recorder) rep.set_flight_recorder(&recorder);
    (void)rep.install_initial_plans();

    std::vector<double> goodput;
    while (!fleet.done()) {
      const runtime::EpochStats e = fleet.run_epoch();
      goodput.push_back(e.goodput);
      (void)rep.on_epoch(e);
    }
    return std::make_pair(goodput, rep.stats().triggers);
  };

  const auto [g_without, t_without] = run(false);
  const auto [g_with, t_with] = run(true);
  EXPECT_EQ(t_without, t_with);
  ASSERT_EQ(g_without.size(), g_with.size());
  for (std::size_t e = 0; e < g_without.size(); ++e) {
    EXPECT_EQ(g_without[e], g_with[e]) << "epoch " << e;  // bit-identical
  }
}
