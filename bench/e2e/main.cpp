// wishbone-e2e: end-to-end benchmark of the Wishbone compiler, its rate
// search, its partitioning service and the programs it generates.
//
//   wishbone_e2e --workload=<name> --seed=<n> [--seconds=<s>] [--trace]
//                [--out=<dir>]
//
// Workloads: compile_native, rate_search, serve_drift, stream_exec (see
// README.md for what each runs and why). The last line on stdout is one
// JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics, or with --trace the per-layer ones. A
// summary, with sample counts and failure reasons, goes to stderr.
// --out writes the full report (and with --trace the spans, as Trace
// Event Format) to <dir>/<workload>-seed<n>[-trace].{json,trace.json}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

using namespace wishbone;
using namespace wishbone::e2e;

namespace {

struct Metric {
  const char* name;
  const char* unit;
  double value = 0.0;
};

double percentile(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : util::percentile(v, p);
}

std::vector<Metric> end_to_end(const RunReport& r) {
  const auto ms = [&](double p) { return percentile(r.latency_s, p) * 1e3; };
  return {
      {"setup_s", "s", percentile(r.setup_s, 50)},
      {"latency_ms_p50", "ms", ms(50)},
      {"latency_ms_p99", "ms", ms(99)},
      {"throughput_per_s", "ops/s", r.busy_s > 0 ? r.work / r.busy_s : 0.0},
      {"peak_heap_mb", "MB", r.peak_heap_mb},
  };
}

/// The per-layer metrics, the same names on every workload (0 where the
/// workload does not reach the layer). Shares divide span self time by
/// the ops' effective time (replays excluded).
std::vector<Metric> per_layer(const RunReport& r, const SpanTotals& t) {
  const auto share = [&](double s) { return t.op_s > 0 ? s / t.op_s : 0.0; };
  const auto layer = [&](const char* l) {
    const auto it = t.layer_s.find(l);
    return share(it == t.layer_s.end() ? 0.0 : it->second);
  };
  const auto self = [&](const char* n) {
    const auto it = t.self_s.find(n);
    return share(it == t.self_s.end() ? 0.0 : it->second);
  };
  const auto counter = [&](const char* n) {
    const auto it = r.layer.find(n);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  return {
      {"core.share", "share", layer("core")},
      {"profile.share", "share", layer("profile")},
      {"graph.share", "share", layer("graph")},
      {"partition.share", "share", layer("partition")},
      {"partition.probe_share", "share", self("partition.probe")},
      {"ilp.share", "share", layer("ilp")},
      {"serve.share", "share", layer("serve")},
      {"runtime.share", "share", layer("runtime")},
      {"obs.coverage", "share", share(t.covered_s)},
      {"obs.trace_overhead_share", "share",
       r.untraced_s > 0 ? r.traced_s / r.untraced_s - 1.0 : 0.0},
      {"partition.vertices_after", "count",
       counter("partition.vertices_after")},
      {"partition.ilp_rows", "count", counter("partition.ilp_rows")},
      {"partition.ilp_cols", "count", counter("partition.ilp_cols")},
      {"partition.solves_per_op", "count",
       counter("partition.solves_per_op")},
      {"partition.warm_basis_share", "share",
       counter("partition.warm_basis_share")},
      {"partition.rejected_bases", "count",
       counter("partition.rejected_bases")},
      {"partition.max_rate_eps", "events/s",
       counter("partition.max_rate_eps")},
      {"ilp.nodes_per_solve", "count", counter("ilp.nodes_per_solve")},
      {"ilp.lp_iterations_per_solve", "count",
       counter("ilp.lp_iterations_per_solve")},
      {"ilp.lp_iterations_per_ms", "1/ms",
       counter("ilp.lp_iterations_per_ms")},
      {"ilp.proved_share", "share", counter("ilp.proved_share")},
      {"serve.hit_share", "share", counter("serve.hit_share")},
      {"serve.key_share", "share", self("serve.key")},
      {"serve.wait_share", "share", counter("serve.wait_share")},
      {"serve.stale_answers", "count", counter("serve.stale_answers")},
      {"runtime.cut_bytes_per_event", "B",
       counter("runtime.cut_bytes_per_event")},
      {"runtime.allocs_per_event", "count",
       counter("runtime.allocs_per_event")},
      {"runtime.lossy_events", "count", counter("runtime.lossy_events")},
  };
}

/// Milliseconds of self time per op for every span name, plus the
/// decode time solve_partition spends beyond the replayed stages.
std::vector<std::pair<std::string, double>> stage_table(const SpanTotals& t) {
  std::vector<std::pair<std::string, double>> rows;
  if (t.ops == 0) return rows;
  const double per_op = 1e3 / static_cast<double>(t.ops);
  for (const auto& [name, s] : t.self_s) rows.emplace_back(name, s * per_op);
  const auto get = [&](const char* n) {
    const auto it = t.self_s.find(n);
    return it == t.self_s.end() ? 0.0 : it->second;
  };
  if (t.self_s.count("partition.preprocess") != 0) {
    rows.emplace_back("partition.decode",
                      std::max(0.0, get("partition.solve") -
                                        get("partition.preprocess") -
                                        get("partition.build_ilp")) *
                          per_op);
  }
  rows.emplace_back("op (effective)", t.op_s * per_op);
  return rows;
}

void write_metrics(obs::JsonWriter& w, const std::vector<Metric>& ms) {
  w.key("metrics").begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "wishbone_e2e: %s\nusage: wishbone_e2e --workload=<compile_"
               "native|rate_search|serve_drift|stream_exec> --seed=<n> "
               "[--seconds=<s>] [--trace] [--out=<dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&](std::string_view key) -> const char* {
      return a.substr(0, key.size()) == key ? argv[i] + key.size() : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      args.workload = v;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      args.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return usage("bad --seed");
    } else if (const char* v = value("--seconds=")) {
      args.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 3600.0) {
        return usage("bad --seconds (want 0 < s <= 3600)");
      }
    } else if (a == "--trace") {
      args.trace = true;
    } else if (const char* v = value("--out=")) {
      args.out = v;
    } else {
      return usage(("unknown argument " + std::string(a)).c_str());
    }
  }
  if (!have_workload) return usage("missing --workload");

  using Fn = RunReport (*)(const Args&);
  const std::pair<const char*, Fn> workloads[] = {
      {"compile_native", run_compile_native},
      {"rate_search", run_rate_search},
      {"serve_drift", run_serve_drift},
      {"stream_exec", run_stream_exec},
  };
  Fn fn = nullptr;
  for (const auto& [name, f] : workloads) {
    if (args.workload == name) fn = f;
  }
  if (fn == nullptr) return usage("unknown workload");

  RunReport rep;
  try {
    rep = fn(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wishbone_e2e: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  std::vector<const SpanLog*> logs;
  for (const auto& l : rep.logs) logs.push_back(l.get());
  const SpanTotals totals = aggregate(logs);
  const std::vector<Metric> metrics =
      args.trace ? per_layer(rep, totals) : end_to_end(rep);
  const bool correct = rep.tally.failed() == 0 && rep.tally.attempted() > 0;

  // ---- stderr summary
  std::fprintf(stderr, "%s seed=%llu %s: %zu ops timed, %zu checked, "
                       "%zu failed\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? "traced" : "untraced", rep.latency_s.size(),
               rep.tally.attempted(), rep.tally.failed());
  for (const auto& [why, n] : rep.tally.reasons()) {
    std::fprintf(stderr, "  FAILED %zu: %s\n", n, why.c_str());
  }
  for (const std::string& n : rep.notes) {
    std::fprintf(stderr, "  %s\n", n.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.6g %s\n", m.name, m.value, m.unit);
  }
  const auto stages = stage_table(totals);
  if (!stages.empty()) {
    std::fprintf(stderr, "  stage self time, ms per op (%zu ops):\n",
                 totals.ops);
    for (const auto& [name, ms] : stages) {
      std::fprintf(stderr, "    %-28s %12.4f\n", name.c_str(), ms);
    }
  }

  // ---- files
  if (!args.out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    obs::JsonWriter w(/*pretty=*/true);
    w.begin_object();
    w.field("workload", std::string_view(args.workload));
    w.field("seed", static_cast<std::uint64_t>(args.seed));
    w.field("seconds", args.seconds);
    w.field("trace", args.trace);
    w.field("correct", correct);
    w.field("attempted", static_cast<std::uint64_t>(rep.tally.attempted()));
    w.field("failed", static_cast<std::uint64_t>(rep.tally.failed()));
    w.key("failures").begin_object();
    for (const auto& [why, n] : rep.tally.reasons()) {
      w.field(why, static_cast<std::uint64_t>(n));
    }
    w.end_object();
    w.field("samples", static_cast<std::uint64_t>(rep.latency_s.size()));
    w.key("setup_s_runs").begin_array();
    for (double s : rep.setup_s) w.value(s);
    w.end_array();
    write_metrics(w, metrics);
    w.key("stage_ms_per_op").begin_object();
    for (const auto& [name, ms] : stages) w.field(name, ms);
    w.end_object();
    w.key("notes").begin_array();
    for (const std::string& n : rep.notes) w.value(std::string_view(n));
    w.end_array();
    w.end_object();
    if (!write_file(stem + ".json", w.take() + "\n")) {
      std::fprintf(stderr, "wishbone_e2e: cannot write %s.json\n",
                   stem.c_str());
      return 1;
    }
    if (args.trace && !write_tef(stem + ".trace.json", logs)) {
      std::fprintf(stderr, "wishbone_e2e: cannot write %s.trace.json\n",
                   stem.c_str());
      return 1;
    }
  }

  // ---- result line
  obs::JsonWriter w;
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", static_cast<std::uint64_t>(rep.tally.attempted()));
  w.field("failed", static_cast<std::uint64_t>(rep.tally.failed()));
  write_metrics(w, metrics);
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  return 0;
}
