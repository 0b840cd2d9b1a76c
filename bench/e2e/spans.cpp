#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "obs/json.hpp"

namespace wishbone::e2e {

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent,
                            bool replay) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.replay = replay;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::close(std::uint32_t id) {
  Span& s = spans_[id - 1];
  s.dur_ns = now_ns() - s.start_ns;
}

std::uint32_t SpanLog::add(const char* name, std::uint32_t parent,
                           std::uint64_t start_ns, std::uint64_t dur_ns) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

namespace {

std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

}  // namespace

SpanTotals aggregate(const std::vector<const SpanLog*>& logs) {
  SpanTotals t;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_s(spans.size(), 0.0);   // non-replay
    std::vector<double> replay_s(spans.size(), 0.0);  // replay children
    for (const Span& s : spans) {
      if (s.parent == 0) continue;
      (s.replay ? replay_s : child_s)[s.parent - 1] +=
          static_cast<double>(s.dur_ns) * 1e-9;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.dur_ns) * 1e-9;
      if (s.parent == 0) {
        ++t.ops;
        t.op_s += dur - replay_s[i];
        t.covered_s += child_s[i];
        continue;
      }
      const double self = std::max(0.0, dur - child_s[i]);
      t.self_s[s.name] += self;
      if (!s.replay) t.layer_s[layer_of(s.name)] += self;
    }
  }
  return t;
}

bool write_tef(const std::string& path,
               const std::vector<const SpanLog*>& logs) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const Span& s : logs[tid]->spans()) {
      w.begin_object();
      w.field("name", s.name);
      w.field("cat", std::string_view(layer_of(s.name)));
      w.field("ph", "X");
      w.field("ts", static_cast<double>(s.start_ns) * 1e-3);
      w.field("dur", static_cast<double>(s.dur_ns) * 1e-3);
      w.field("pid", 1);
      w.field("tid", static_cast<int>(tid));
      if (s.replay) {
        w.key("args").begin_object();
        w.field("replay", true);
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  const std::string out = w.take();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace wishbone::e2e
