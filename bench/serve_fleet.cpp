// Fleet-serving benchmark for the partitioning service (src/serve).
//
// Simulates the deployment the paper's evaluation points at: a fleet of
// devices running a handful of applications on a few platforms, each
// periodically re-partitioning as its measured profile drifts. Requests
// stream from concurrent client threads into one PartitionServer; the
// benchmark reports what the service layer buys over calling the
// partitioner directly:
//
//  - requests/sec and p50/p95/p99 end-to-end latency under 10^5
//    devices (percentiles from the obs::Histogram the serve layer
//    itself exports — no sample vectors),
//  - the cache hit rate (most devices share a quantization cell),
//  - median hit latency vs median cold-solve latency and their ratio
//    (the headline: a hit must be >= 5x faster than a cold solve),
//  - allocations per cache hit (the hit path must stay cheap),
//  - coalescing / stale-re-solve / warm-basis counters.
//
// Machine-independent outputs (hit rate, hit-vs-cold speedup, allocs
// per hit, warm-basis acceptance) are gated hard in CI by
// `bench/check_bench.py serve`; absolute throughput is report-only
// across hosts, the convention set by the Fig. 6 and stream benches.
//
// Runs with request tracing enabled at default sampling (1 in 1024),
// so the reported latencies price in the telemetry plane's production
// configuration — the overhead budget the obs README commits to.
//
// Output: BENCH_serve.json and BENCH_serve_metrics.prom (the
// Prometheus export, validated by bench/check_obs_export.py) in the
// working directory.
//
// Usage: bench_serve_fleet [devices] [rounds] [server_workers]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "serve/graph_hash.hpp"
#include "serve/server.hpp"
#include "util/alloc_count.hpp"

using namespace wishbone;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One of four synthetic application shapes: a layered sensing DAG of
/// ~24 vertices (pinned source row, movable middle, pinned sink), the
/// size class of the paper's EEG/speech problems after preprocessing.
partition::PartitionProblem shape_problem(std::size_t shape) {
  std::mt19937 rng(0xf1ee7u + static_cast<std::uint32_t>(shape));
  std::uniform_real_distribution<double> cpu(0.02, 0.12);
  std::uniform_real_distribution<double> bw(5.0, 120.0);

  partition::PartitionProblem p;
  auto add = [&](partition::Requirement req, double c) {
    partition::ProblemVertex v;
    v.name = "v" + std::to_string(p.vertices.size());
    v.req = req;
    v.cpu = c;
    p.vertices.push_back(std::move(v));
    return p.vertices.size() - 1;
  };

  const std::size_t width = 3 + shape % 2;   // 3 or 4 wide
  const std::size_t layers = 5 + shape / 2;  // 5 or 6 deep
  std::vector<std::size_t> prev;
  for (std::size_t i = 0; i < width; ++i) {
    prev.push_back(add(partition::Requirement::kNode, 0.0));
  }
  for (std::size_t l = 0; l < layers; ++l) {
    std::vector<std::size_t> cur;
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t v = add(partition::Requirement::kMovable, cpu(rng));
      p.edges.push_back(
          partition::ProblemEdge{prev[rng() % prev.size()], v, bw(rng)});
      cur.push_back(v);
    }
    prev = std::move(cur);
  }
  const std::size_t sink = add(partition::Requirement::kServer, 0.0);
  for (std::size_t u : prev) {
    p.edges.push_back(partition::ProblemEdge{u, sink, bw(rng)});
  }
  p.cpu_budget = 0.7;
  p.net_budget = 1e9;
  p.alpha = 0.1;
  p.beta = 1.0;
  p.check();
  return p;
}

/// Uniformly rescales a shape's profile — the structure-preserving
/// drift of a device whose event rate moved.
partition::PartitionProblem at_scale(const partition::PartitionProblem& base,
                                     double s) {
  partition::PartitionProblem p = base;
  for (auto& v : p.vertices) v.cpu *= s;
  for (auto& e : p.edges) e.bandwidth *= s;
  return p;
}

constexpr std::size_t kShapes = 4;
const char* const kPlatforms[] = {"tmote_sky", "imote2", "phone"};
constexpr std::size_t kNumPlatforms = 3;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t devices =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const std::size_t rounds =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2;
  const std::size_t server_workers =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;
  constexpr std::size_t kClients = 4;

  bench::header("serve", "partitioning-as-a-service under a drifting fleet");
  std::printf("devices=%zu rounds=%zu server_workers=%zu clients=%zu\n\n",
              devices, rounds, server_workers, kClients);

  // Production telemetry configuration: tracing on at default sampling.
  // The latency gates below therefore price in the observability tax.
  obs::Tracer::global().enable();

  // End-to-end latency histograms, one per response path. 512 log
  // buckets over 0.1us..10s keeps the per-bucket quantile error under
  // ~4%, far inside the 5x hit-speedup gate's margin.
  const obs::HistogramOptions lat_opts{1e-7, 10.0, 512};
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram* const lat_all = reg.histogram(
      "wishbone_bench_serve_latency_seconds", {{"path", "all"}}, lat_opts);
  obs::Histogram* const lat_hit = reg.histogram(
      "wishbone_bench_serve_latency_seconds", {{"path", "hit"}}, lat_opts);
  obs::Histogram* const lat_cold = reg.histogram(
      "wishbone_bench_serve_latency_seconds", {{"path", "cold"}}, lat_opts);
  obs::Histogram* const lat_stale = reg.histogram(
      "wishbone_bench_serve_latency_seconds", {{"path", "stale"}}, lat_opts);

  std::vector<partition::PartitionProblem> shapes;
  std::vector<std::uint64_t> shape_hashes;
  for (std::size_t s = 0; s < kShapes; ++s) {
    shapes.push_back(shape_problem(s));
    shape_hashes.push_back(serve::canonical_problem_hash(shapes.back()));
  }

  serve::ServeOptions so;
  so.workers = server_workers;
  so.queue_capacity = 512;
  so.cache_capacity = 8192;
  serve::PartitionServer server(so);

  // Per-device state: shape, platform, and a scale that random-walks
  // each round. Scales cluster near 1.0 so devices share cells, with
  // enough spread that drift crosses cell boundaries regularly.
  std::vector<float> scale(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    std::mt19937 rng(0xd0d0u + static_cast<std::uint32_t>(d));
    scale[d] = static_cast<float>(0.9 + 0.2 * (rng() % 1000) / 1000.0);
  }

  // ---- main phase: rounds x devices requests from kClients threads.
  const auto t_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937 rng(0xc11e7u + static_cast<std::uint32_t>(c));
        for (std::size_t r = 0; r < rounds; ++r) {
          for (std::size_t d = c; d < devices; d += kClients) {
            const std::size_t shape = d % kShapes;
            serve::SolveRequest req;
            req.problem = at_scale(shapes[shape], scale[d]);
            req.platform_id = kPlatforms[(d / kShapes) % kNumPlatforms];
            req.graph_hash = shape_hashes[shape];

            const auto t0 = Clock::now();
            const serve::SolveResponse resp = server.submit(std::move(req)).get();
            const double lat_s = seconds_since(t0);

            lat_all->record(lat_s);
            if (resp.source == serve::ResponseSource::kCacheHit) {
              lat_hit->record(lat_s);
            } else if (resp.cache_outcome == serve::CacheOutcome::kStale) {
              lat_stale->record(lat_s);
            } else {
              lat_cold->record(lat_s);
            }

            // Random-walk drift: ~1.5% steps, reflected into [0.85, 1.2]
            // so the fleet keeps revisiting known cells.
            const double step = 1.0 + 0.015 * ((rng() % 3) - 1.0);
            scale[d] = static_cast<float>(
                std::clamp(scale[d] * step, 0.85, 1.2));
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double wall_s = seconds_since(t_start);
  const std::size_t total_requests = devices * rounds;

  // ---- allocation probe: a burst of guaranteed hits on one thread.
  // (The previous phase left every device's current cell cached unless
  // evicted; use device 0's key, touched above.)
  serve::SolveRequest probe;
  probe.problem = at_scale(shapes[0], scale[0]);
  probe.platform_id = kPlatforms[0];
  probe.graph_hash = shape_hashes[0];
  (void)server.submit(probe).get();  // ensure cached
  // Pre-create this thread's trace ring: with sampling at 1/1024, one
  // probe request may get sampled, and the ring's one-time allocation
  // must not be billed to the hit path.
  obs::Tracer::global().record_span(
      "bench.ring_warmup", obs::Tracer::global().force_trace(), 0, 0);
  constexpr std::size_t kProbes = 1000;
  const std::uint64_t a0 = util::allocation_count();
  for (std::size_t i = 0; i < kProbes; ++i) {
    (void)server.submit(probe).get();
  }
  const double allocs_per_hit =
      static_cast<double>(util::allocation_count() - a0) /
      static_cast<double>(kProbes);

  const serve::ServerStats st = server.stats();

  // Percentiles come straight off the shared histograms — the same
  // numbers a scrape of the Prometheus export would reconstruct.
  const std::uint64_t hits = lat_hit->count();
  const std::uint64_t colds = lat_cold->count();
  const std::uint64_t stales = lat_stale->count();
  const double hit_rate = static_cast<double>(hits) /
                          static_cast<double>(lat_all->count());
  const double p50_us = lat_all->p50() * 1e6;
  const double p95_us = lat_all->p95() * 1e6;
  const double p99_us = lat_all->p99() * 1e6;
  const double med_hit = lat_hit->p50() * 1e6;
  const double med_cold = lat_cold->p50() * 1e6;
  const double med_stale = lat_stale->p50() * 1e6;
  const double hit_speedup = med_hit > 0.0 ? med_cold / med_hit : 0.0;

  std::printf("requests            %zu in %.2fs  (%.0f req/s)\n",
              total_requests, wall_s,
              static_cast<double>(total_requests) / wall_s);
  std::printf("latency p50/p95/p99 %.1f / %.1f / %.1f us\n", p50_us, p95_us,
              p99_us);
  std::printf("hit rate            %.4f  (%zu hits, %zu cold, %zu stale)\n",
              hit_rate, static_cast<std::size_t>(hits),
              static_cast<std::size_t>(colds),
              static_cast<std::size_t>(stales));
  std::printf("median hit / cold   %.1f / %.1f us  -> %.1fx\n", med_hit,
              med_cold, hit_speedup);
  std::printf("median stale        %.1f us (warm-started re-solve)\n",
              med_stale);
  std::printf("allocs per hit      %.1f\n", allocs_per_hit);
  std::printf("server: solves=%zu coalesced=%zu stale=%zu warm=%zu "
              "warm_rejected=%zu evictions=%zu\n\n",
              st.solves, st.coalesced, st.stale_resolves, st.warm_basis_used,
              st.warm_basis_rejected, st.cache.evictions);

  bench::Json j;
  j.set("devices", devices);
  j.set("rounds", rounds);
  j.set("server_workers", server_workers);
  j.set("client_threads", kClients);
  j.set("requests", total_requests);
  j.set("wall_s", wall_s);
  j.set("requests_per_sec", static_cast<double>(total_requests) / wall_s);
  j.set("p50_us", p50_us);
  j.set("p95_us", p95_us);
  j.set("p99_us", p99_us);
  j.set("hit_rate", hit_rate);
  j.set("median_hit_us", med_hit);
  j.set("median_cold_us", med_cold);
  j.set("median_stale_us", med_stale);
  j.set("hit_speedup", hit_speedup);
  j.set("allocs_per_hit", allocs_per_hit);
  j.set("solves", st.solves);
  j.set("coalesced", st.coalesced);
  j.set("stale_resolves", st.stale_resolves);
  j.set("warm_basis_used", st.warm_basis_used);
  j.set("warm_basis_rejected", st.warm_basis_rejected);
  j.set("cache_entries", st.cache.entries);
  j.set("cache_evictions", st.cache.evictions);
  j.write("BENCH_serve.json");

  // Prometheus text export of everything the run registered (serve
  // counters, cache counters, solver counters, latency histograms) —
  // bench/check_obs_export.py parses and validates this file in CI.
  {
    const std::string prom = reg.prometheus_text();
    std::FILE* f = std::fopen("BENCH_serve_metrics.prom", "w");
    if (f != nullptr) {
      std::fwrite(prom.data(), 1, prom.size(), f);
      std::fclose(f);
      std::printf("wrote BENCH_serve_metrics.prom\n");
    }
  }
  return 0;
}
