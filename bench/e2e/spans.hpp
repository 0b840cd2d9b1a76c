// Benchmark-side spans for the traced run.
//
// The traced run wraps every op in a root span and, inside it, every
// public library call it replays in a child span. Spans are recorded
// here, around the calls, never inside the library: its own obs::Tracer
// stays off in both modes. Each client thread owns one SpanLog, so
// recording takes no lock; the logs stay in memory and are written out
// as Trace Event Format (chrome://tracing) when the run ends.
//
// A span marked `replay` re-runs work that a sibling span repeats
// internally (e.g. preprocess() timed on its own before solve_partition
// preprocesses again). Replays break a stage down; they are excluded
// from the op's effective time, from coverage, and from layer shares.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wishbone::e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";       ///< "<layer>.<call>", a string literal
  std::uint64_t start_ns = 0;  ///< since the run's epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t parent = 0;    ///< id of the parent span; 0 = op root
  bool replay = false;
};

/// The spans of one client thread. A span's id is its index + 1.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  [[nodiscard]] std::uint64_t now_ns() const;
  std::uint32_t open(const char* name, std::uint32_t parent,
                     bool replay = false);
  void close(std::uint32_t id);
  /// Records a span whose interval is known after the fact (e.g. the
  /// solver's own MipResult::time_total inside a solve_partition span).
  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::uint64_t start_ns, std::uint64_t dur_ns);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint32_t parent,
        bool replay = false)
      : log_(log), id_(log.open(name, parent, replay)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Span totals over every op root in a set of logs.
struct SpanTotals {
  std::size_t ops = 0;
  double op_s = 0.0;        ///< Σ effective op time (replays excluded)
  double covered_s = 0.0;   ///< Σ non-replay direct children of op roots
  /// Self time (duration minus non-replay children) summed per span
  /// name; replay spans are listed under their own name too.
  std::map<std::string, double> self_s;
  /// Self time per layer (the name's prefix before '.'), replays
  /// excluded, op roots excluded.
  std::map<std::string, double> layer_s;
};

[[nodiscard]] SpanTotals aggregate(const std::vector<const SpanLog*>& logs);

/// Writes the logs as one Trace Event Format file (one tid per log).
/// Returns false if the file could not be written.
bool write_tef(const std::string& path,
               const std::vector<const SpanLog*>& logs);

}  // namespace wishbone::e2e
