// The four wishbone-e2e workloads. Each runs in its own process and
// builds every input from the seed. A run is a few passes over the same
// closed-loop ops, each pass on a fresh set-up (the median set-up time is
// setup_s); an op's latency is its fastest pass. Every answer is checked
// (checks.hpp). With `trace` set, every other pass replays the ops stage
// by stage under spans (spans.hpp), which yields the per-layer metrics
// and, against the untraced passes, the tracing overhead.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

namespace wishbone::e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out;  ///< directory for the report and trace files; "" = none
};

struct RunReport {
  std::vector<double> setup_s;    ///< one per pass
  std::vector<double> latency_s;  ///< per op, fastest untraced pass
  /// Throughput is work / busy_s: ops (or input samples) over the time
  /// the clients spent waiting on the library (Σ op time ÷ clients).
  double work = 0.0;
  double busy_s = 0.0;
  /// Largest heap in use (live allocations) seen between ops, in MB.
  double peak_heap_mb = 0.0;
  Tally tally;

  // Trace mode only.
  std::vector<std::unique_ptr<SpanLog>> logs;
  /// Σ untraced and Σ effective traced time over the same ops.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  /// Per-layer counters, keyed by metric name (see main.cpp).
  std::map<std::string, double> layer;
  /// Extra lines for the stderr summary.
  std::vector<std::string> notes;
};

RunReport run_compile_native(const Args& args);
RunReport run_rate_search(const Args& args);
RunReport run_serve_drift(const Args& args);
RunReport run_stream_exec(const Args& args);

}  // namespace wishbone::e2e
