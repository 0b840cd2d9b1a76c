#include "core/wishbone.hpp"

#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace wishbone::core {

Wishbone::Wishbone(graph::Graph& g, profile::PlatformModel platform,
                   CompileOptions opts)
    : g_(g), platform_(std::move(platform)), opts_(std::move(opts)) {
  if (auto err = g.validate()) {
    throw util::ContractError("Wishbone: invalid graph: " + *err);
  }
}

CompileReport Wishbone::compile(
    const std::map<graph::OperatorId, std::vector<graph::Frame>>& traces,
    std::size_t num_events, double events_per_sec) {
  profile::Profiler prof(g_);
  profile::ProfileData pd = prof.run(traces, num_events);
  g_.reset_state();
  return run(std::move(pd), events_per_sec);
}

CompileReport Wishbone::partition_only(const profile::ProfileData& pd,
                                       double events_per_sec) const {
  return run(pd, events_per_sec);
}

CompileReport Wishbone::run(profile::ProfileData pd,
                            double events_per_sec) const {
  WB_REQUIRE(events_per_sec > 0, "event rate must be positive");
  CompileReport rep;
  rep.profile = std::move(pd);
  rep.requested_rate = events_per_sec;
  rep.pins = graph::analyze_pins(g_, CompileOptions::mode);

  // make_problem gives operator v vertex v, so the sides solve_partition
  // returns are already indexed by OperatorId.
  auto problem_at = [&](double rate) {
    return partition::make_problem(g_, rep.pins, rep.profile, platform_,
                                   rate);
  };

  // The search's first probe is the solve at the requested rate, and
  // only that probe can return exactly max_rate, so a fit there needs no
  // solve of its own.
  partition::RateSearchOptions rs;
  rs.partition = opts_.partition;
  rs.min_rate = events_per_sec / 4096.0;
  rs.max_rate = events_per_sec;
  rs.rel_tol = CompileOptions::rate_search_rel_tol;
  partition::RateSearchResult found =
      partition::max_sustainable_rate(problem_at, rs);
  partition::PartitionResult res;
  if (found.any_feasible && found.max_rate == events_per_sec) {
    res = std::move(found.partition_at_max);
  }

  std::ostringstream msg;
  if (res.feasible) {
    rep.feasible_at_requested_rate = true;
    rep.partition_rate = events_per_sec;
    rep.partition = std::move(res);
    msg << "feasible at " << events_per_sec << " events/s on "
        << platform_.name << ": " << rep.partition.node_partition_size
        << " operators in the node partition, CPU "
        << rep.partition.cpu_used << " of " << platform_.cpu_budget
        << ", uplink " << rep.partition.net_used << " of "
        << platform_.radio_bytes_per_sec << " B/s";
  } else {
    msg << "no partition fits at " << events_per_sec << " events/s on "
        << platform_.name << " (CPU budget " << platform_.cpu_budget
        << ", uplink budget " << platform_.radio_bytes_per_sec << " B/s)";
    if (found.any_feasible) {
      rep.max_sustainable_rate = found.max_rate;
      rep.partition_rate = found.max_rate;
      rep.partition = std::move(found.partition_at_max);
      msg << "; maximum sustainable rate is " << found.max_rate
          << " events/s (" << (100.0 * found.max_rate / events_per_sec)
          << "% of requested) — reduce the sampling rate or accept "
          << "load shedding at the sources";
    } else {
      msg << "; no rate admits a partition: the pinned operators alone "
          << "exceed the budgets — use a more capable platform";
    }
  }
  rep.message = msg.str();

  // Visualization (§3): heat from the profile, shapes from the cut.
  graph::DotOptions dot;
  dot.heat = rep.profile.heat(platform_);
  if (rep.partition.feasible &&
      rep.partition.sides.size() == g_.num_operators()) {
    dot.assignment = rep.partition.sides;
  }
  std::vector<std::string> labels;
  labels.reserve(g_.num_edges());
  for (std::size_t ei = 0; ei < g_.num_edges(); ++ei) {
    std::ostringstream l;
    l << rep.profile.bandwidth(
        ei, rep.partition_rate > 0 ? rep.partition_rate : events_per_sec)
      << " B/s";
    labels.push_back(l.str());
  }
  dot.edge_labels = std::move(labels);
  dot.graph_name = "wishbone_" + platform_.name;
  rep.dot = graph::to_dot(g_, dot);
  return rep;
}

}  // namespace wishbone::core
