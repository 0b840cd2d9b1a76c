#include "profile/profiler.hpp"

#include <algorithm>
#include <utility>

#include "runtime/executor.hpp"
#include "util/assert.hpp"

namespace wishbone::profile {

double ProfileData::micros_per_event(const PlatformModel& p,
                                     OperatorId v) const {
  WB_REQUIRE(v < op_counts.size(), "operator id out of range");
  WB_REQUIRE(num_events > 0, "profile holds no events");
  return p.micros(op_counts[v]) / static_cast<double>(num_events);
}

double ProfileData::bytes_per_event(std::size_t ei) const {
  WB_REQUIRE(ei < edge_bytes.size(), "edge index out of range");
  WB_REQUIRE(num_events > 0, "profile holds no events");
  return edge_bytes[ei] / static_cast<double>(num_events);
}

double ProfileData::cpu_fraction(const PlatformModel& p, OperatorId v,
                                 double events_per_sec) const {
  return micros_per_event(p, v) * events_per_sec / 1e6;
}

double ProfileData::bandwidth(std::size_t ei, double events_per_sec) const {
  return bytes_per_event(ei) * events_per_sec;
}

double ProfileData::peak_micros_per_event(const PlatformModel& p,
                                          OperatorId v) const {
  WB_REQUIRE(v < op_peak_counts.size(), "operator id out of range");
  return p.micros(op_peak_counts[v]);
}

double ProfileData::peak_cpu_fraction(const PlatformModel& p, OperatorId v,
                                      double events_per_sec) const {
  return peak_micros_per_event(p, v) * events_per_sec / 1e6;
}

double ProfileData::peak_bandwidth(std::size_t ei,
                                   double events_per_sec) const {
  WB_REQUIRE(ei < edge_peak_bytes.size(), "edge index out of range");
  return edge_peak_bytes[ei] * events_per_sec;
}

std::vector<double> ProfileData::heat(const PlatformModel& p) const {
  std::vector<double> h(op_counts.size(), 0.0);
  double hottest = 0.0;
  for (OperatorId v = 0; v < op_counts.size(); ++v) {
    h[v] = p.micros(op_counts[v]);
    hottest = std::max(hottest, h[v]);
  }
  if (hottest > 0.0) {
    for (double& x : h) x /= hottest;
  }
  return h;
}

Profiler::Profiler(Graph& g) : graph_(g) {
  if (auto err = g.validate()) {
    throw util::ContractError("Profiler: invalid graph: " + *err);
  }
}

namespace {

/// Tracks per-event deltas against the executor's cumulative meters and
/// byte counters and folds them into the profile's peak records.
class PeakTracker {
 public:
  PeakTracker(std::size_t num_ops, std::size_t num_edges)
      : prev_counts_(num_ops), prev_edge_bytes_(num_edges, 0.0) {}

  void end_event(const runtime::ExecMeters& m, ProfileData& pd) {
    for (std::size_t v = 0; v < prev_counts_.size(); ++v) {
      const graph::OpCounts delta =
          graph::counts_delta(m.op[v].totals(), prev_counts_[v]);
      pd.op_peak_counts[v] = graph::counts_max(pd.op_peak_counts[v], delta);
      prev_counts_[v] = m.op[v].totals();
    }
    for (std::size_t ei = 0; ei < prev_edge_bytes_.size(); ++ei) {
      pd.edge_peak_bytes[ei] = std::max(
          pd.edge_peak_bytes[ei], m.edge_bytes[ei] - prev_edge_bytes_[ei]);
      prev_edge_bytes_[ei] = m.edge_bytes[ei];
    }
  }

 private:
  std::vector<graph::OpCounts> prev_counts_;
  std::vector<double> prev_edge_bytes_;
};

}  // namespace

ProfileData Profiler::run(
    const std::map<OperatorId, std::vector<Frame>>& traces,
    std::size_t num_events) {
  WB_REQUIRE(num_events > 0, "need at least one event to profile");
  const auto sources = graph_.sources();
  for (OperatorId s : sources) {
    const auto it = traces.find(s);
    WB_REQUIRE(it != traces.end(),
               "no trace supplied for source '" + graph_.info(s).name + "'");
    WB_REQUIRE(it->second.size() >= num_events,
               "trace for source '" + graph_.info(s).name + "' is shorter "
               "than the requested number of events");
  }

  const std::size_t num_ops = graph_.num_operators();
  runtime::PartitionedExecutor ex(
      graph_, std::vector<graph::Side>(num_ops, graph::Side::kNode));
  runtime::ExecMeters m(graph_);
  ex.attach_meters(&m);

  ProfileData pd;
  pd.num_events = num_events;
  pd.op_peak_counts.resize(num_ops);
  pd.edge_peak_bytes.resize(graph_.num_edges(), 0.0);
  PeakTracker peaks(num_ops, graph_.num_edges());
  for (std::size_t i = 0; i < num_events; ++i) {
    for (OperatorId s : sources) {
      const Frame& f = traces.at(s)[i];
      // Nominal acquisition cost: the ADC/driver copies every sample.
      m.op[s].begin_invocation();
      m.op[s].charge_mem(f.wire_bytes());
      m.op[s].charge_int(f.size());
      m.op[s].charge_emit();
    }
    ex.step(traces, i);
    peaks.end_event(m, pd);
  }

  pd.op_counts.reserve(num_ops);
  pd.op_invocations.reserve(num_ops);
  pd.op_loops.reserve(num_ops);
  for (graph::CostMeter& meter : m.op) {
    pd.op_counts.push_back(meter.totals());
    pd.op_invocations.push_back(meter.invocations());
    pd.op_loops.push_back(std::move(meter).take_loops());
  }
  pd.op_elements_out = std::move(m.elements_out);
  pd.op_bytes_out = std::move(m.bytes_out);
  pd.edge_bytes = std::move(m.edge_bytes);
  pd.edge_elements = std::move(m.edge_elements);
  return pd;
}

}  // namespace wishbone::profile
