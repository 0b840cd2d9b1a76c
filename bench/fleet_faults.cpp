// Fault-injected fleet A/B: static partition vs online re-partitioning.
//
// The robustness experiment the paper's evaluation stops short of: a
// mote fleet (cc2420 radio, balanced collection tree) runs a
// data-reducing sensing chain for 30 epochs while reality drifts away
// from the profile the ILP solved against — per-class CPU load creeps
// up, per-node speeds random-walk — under the canonical fault schedule
// (Gilbert-Elliott burst loss, >=5% of nodes crashing, link
// degradation windows, one basestation outage). Two arms share the
// identical fleet, drift and fault trajectory, seed for seed:
//
//  - static: the initial ILP partitions stay installed forever;
//  - adaptive: a Repartitioner watches measured-vs-predicted goodput
//    and re-solves through the PartitionServer, degrading to stale
//    last-good plans or the all-at-basestation baseline when the
//    solver cannot help.
//
// Both arms run the server in pump mode (workers=0, deadlines off), so
// the whole A/B is bit-reproducible from (seed, config) — the bench
// re-runs the adaptive arm to prove it, and stamps the output with the
// fleet/fault config hashes and seed that replay it.
//
// A second, wall-clock phase exercises the degraded serve path under
// load: threaded server, tight per-request deadlines, then a stop()
// racing in-flight requests. The liveness counts (every future must
// resolve: solved, expired, shed or shutdown — never blocked) are
// gated hard in CI by `bench/check_bench.py faults`; the latencies
// are report-only, the convention set by the serve and stream benches.
//
// Output: BENCH_faults.json in the working directory.
//
// Usage: bench_fleet_faults [epochs] [num_nodes]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/radio.hpp"
#include "obs/flight_recorder.hpp"
#include "partition/problem.hpp"
#include "runtime/fleet_sim.hpp"
#include "runtime/repartitioner.hpp"
#include "serve/server.hpp"

using namespace wishbone;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double ix = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(ix);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (ix - static_cast<double>(lo));
}

/// The benchmark application: a four-stage data-reducing chain sized
/// for the cc2420 radio at 0.5 events/s. The cut can sit after the
/// source (220 B/s), after stage A (90 B/s), after stage B (26 B/s) or
/// after stage C (14 B/s); only the two deepest cuts fit the net
/// budget, and the deepest needs ~0.88 of the CPU. At nominal load the
/// solver picks everything-on-node; as CPU drifts up it must trade the
/// classifier (stage C) to the server, and past ~1.9x nothing fresh is
/// feasible — the stale rung carries the fleet.
partition::PartitionProblem bench_problem() {
  partition::PartitionProblem p;
  auto add = [&](const char* name, double cpu, partition::Requirement req) {
    partition::ProblemVertex v;
    v.name = name;
    v.cpu = cpu;
    v.req = req;
    p.vertices.push_back(std::move(v));
    return p.vertices.size() - 1;
  };
  const auto src = add("sample", 0.03, partition::Requirement::kNode);
  const auto a = add("filter", 0.22, partition::Requirement::kMovable);
  const auto b = add("feature", 0.28, partition::Requirement::kMovable);
  const auto c = add("classify", 0.35, partition::Requirement::kMovable);
  const auto sink = add("collect", 0.0, partition::Requirement::kServer);
  p.edges.push_back({src, a, 220.0});
  p.edges.push_back({a, b, 90.0});
  p.edges.push_back({b, c, 26.0});
  p.edges.push_back({c, sink, 14.0});
  p.cpu_budget = 1.0;
  p.net_budget = 34.0;  // headroom so a fresh solve survives ~15% quality loss
  p.alpha = 0.1;
  p.beta = 1.0;
  p.check();
  return p;
}

/// The canonical fault-injected fleet: 20 motes (the paper's testbed
/// size), three platform classes, burst loss, 10% crashes, link
/// degradation and one basestation outage, plus the CPU-load creep
/// that forces re-partitioning.
runtime::FleetConfig bench_config(std::size_t epochs, std::size_t num_nodes) {
  runtime::FleetConfig fc;
  fc.num_nodes = num_nodes;
  fc.tree_fanout = 3;
  fc.num_classes = 3;
  fc.events_per_sec = 0.5;
  fc.epoch_s = 10.0;
  fc.epochs = epochs;
  fc.radio = net::cc2420_radio();
  fc.class_cpu_spread = 0.4;
  fc.drift_step = 0.02;
  fc.cpu_trend_per_epoch = 0.04;
  fc.seed = 20090422;  // the paper's publication date
  fc.faults.crash_fraction = 0.10;
  fc.faults.degrade_fraction = 0.15;
  fc.faults.basestation_outages = 1;
  return fc;
}

runtime::RepartitionerConfig control_config() {
  runtime::RepartitionerConfig rc;
  rc.trigger_divergence = 0.10;
  rc.clear_divergence = 0.04;
  rc.cooldown_epochs = 2;
  // On a mote-grade channel the all-at-basestation rung (220 B/s raw
  // cut vs ~1.7 kB/s shared capacity) congests the fleet to near-zero
  // goodput, so any stale plan beats it: keep last-good valid for the
  // whole run and reserve the baseline rung for fleets that have never
  // solved at all.
  rc.stale_max_epochs = 1000;
  rc.pump_server = true;
  rc.seed = 20090422;
  return rc;
}

struct ArmResult {
  std::vector<double> goodput;
  std::vector<double> predicted;
  double mean_goodput = 0.0;
  std::size_t nodes_crashed = 0;
  std::size_t outages = 0;
  double outage_total_s = 0.0;
  std::uint64_t burst_bad_steps = 0;
  std::size_t reparented = 0;
  runtime::RepartitionerStats control;
  std::uint64_t fleet_hash = 0;
  std::uint64_t fault_hash = 0;
  std::uint64_t fault_seed = 0;
  std::size_t flight_snapshots = 0;
  std::string flight_json;
};

/// Runs one arm over a freshly constructed (identical) fleet. Both
/// arms install the same initial plans through the same pump-mode
/// server path; only `adaptive` feeds epoch stats back into the
/// control loop.
ArmResult run_arm(std::size_t epochs, std::size_t num_nodes, bool adaptive) {
  serve::ServeOptions so;
  so.workers = 0;  // pump mode: deterministic, drained inline
  serve::PartitionServer server(so);
  runtime::FleetSim fleet(bench_problem(), bench_config(epochs, num_nodes));
  runtime::Repartitioner rep(server, fleet, control_config());
  // The adaptive arm carries a flight recorder so every divergence
  // trigger and rung transition leaves a post-mortem snapshot. The
  // recorder is passive (sim-time stamps, no clock reads, no control
  // flow) — the replay arm attaches one too, and the bit-identical
  // replay gate below is what proves that claim every run.
  obs::FlightRecorder recorder;
  if (adaptive) rep.set_flight_recorder(&recorder);
  (void)rep.install_initial_plans();

  ArmResult r;
  while (!fleet.done()) {
    const runtime::EpochStats e = fleet.run_epoch();
    r.goodput.push_back(e.goodput);
    r.predicted.push_back(e.predicted_goodput);
    r.reparented += e.reparented;
    if (adaptive) (void)rep.on_epoch(e);
  }
  r.mean_goodput = fleet.mean_goodput();
  r.control = rep.stats();
  r.nodes_crashed = fleet.faults().crashes().size();
  r.outages = fleet.faults().outages().size();
  for (const net::OutageWindow& w : fleet.faults().outages()) {
    r.outage_total_s += w.end_s - w.start_s;
  }
  // Burst activity over the run, replayed from the shared schedule.
  net::GilbertElliott chain = fleet.faults().make_burst_chain(0);
  const std::size_t slots = static_cast<std::size_t>(
      fleet.config().epoch_s * static_cast<double>(epochs) /
      fleet.config().burst_slot_s);
  for (std::size_t s = 0; s < slots; ++s) (void)chain.lose();
  r.burst_bad_steps = chain.bad_steps();
  r.fleet_hash = fleet.config().hash();
  r.fault_hash = fleet.config().faults.hash();
  r.fault_seed = fleet.faults().seed();
  r.flight_snapshots = recorder.snapshots().size();
  r.flight_json = recorder.dump_json();
  return r;
}

/// A distinct layered problem per request so the degraded-serve phase
/// actually solves instead of hitting the cache.
partition::PartitionProblem load_problem(std::uint32_t seed) {
  std::mt19937 rng(seed);
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
  std::vector<std::size_t> prev;
  for (std::size_t i = 0; i < 3; ++i) {
    prev.push_back(add(partition::Requirement::kNode, 0.0));
  }
  for (std::size_t l = 0; l < 4; ++l) {
    std::vector<std::size_t> cur;
    for (std::size_t i = 0; i < 3; ++i) {
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

struct LadderResult {
  std::size_t requests = 0;
  std::size_t solved = 0;
  std::size_t expired = 0;
  std::size_t shutdown = 0;
  std::size_t unresolved = 0;  ///< futures that never resolved: must be 0
  std::size_t stop_wave_requests = 0;
  std::size_t stop_wave_unresolved = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t server_deadline_expired = 0;
  std::size_t server_shed_solves = 0;
  std::size_t server_submit_timeouts = 0;
};

/// Wall-clock phase: a small threaded server under more offered load
/// than it can absorb, with tight deadlines — then a shutdown racing
/// the stragglers. Every accepted future must resolve one way or
/// another; nothing may block forever.
LadderResult run_ladder() {
  constexpr std::size_t kRequests = 240;
  constexpr std::size_t kClients = 4;
  constexpr double kDeadlineS = 0.0005;  // tighter than a typical solve
  LadderResult out;
  out.requests = kRequests;

  serve::ServeOptions so;
  so.workers = 1;
  so.queue_capacity = 4;  // force admission waits and worker-side shedding
  serve::PartitionServer server(so);

  std::vector<std::vector<double>> lat_ms(kClients);
  std::vector<std::vector<std::size_t>> counts(kClients,
                                               std::vector<std::size_t>(4, 0));
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Submit the whole allotment before waiting on anything — the
        // backlog this builds is what pushes requests past their
        // deadlines into the expired/shed paths.
        std::vector<std::future<serve::SolveResponse>> futs;
        std::vector<Clock::time_point> t0s;
        for (std::size_t i = c; i < kRequests; i += kClients) {
          serve::SolveRequest req;
          req.problem = load_problem(0xfa177u + static_cast<std::uint32_t>(i));
          req.platform_id = "ladder";
          req.deadline_s = kDeadlineS;
          t0s.push_back(Clock::now());
          futs.push_back(server.submit(std::move(req)));
        }
        for (std::size_t k = 0; k < futs.size(); ++k) {
          // Deadline plus a generous grace: anything still pending
          // after this is an indefinitely-blocked future — the bug
          // class this phase exists to rule out.
          if (futs[k].wait_for(std::chrono::duration<double>(
                  kDeadlineS + 5.0)) != std::future_status::ready) {
            ++counts[c][3];
            continue;
          }
          const serve::SolveResponse resp = futs[k].get();
          lat_ms[c].push_back(seconds_since(t0s[k]) * 1e3);
          if (resp.source == serve::ResponseSource::kExpired) {
            ++counts[c][1];
          } else if (resp.source == serve::ResponseSource::kShutdown) {
            ++counts[c][2];
          } else {
            ++counts[c][0];
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const serve::ServerStats st = server.stats();
  out.server_deadline_expired = st.deadline_expired;
  out.server_shed_solves = st.shed_solves;
  out.server_submit_timeouts = st.submit_timeouts;

  std::vector<double> all_ms;
  for (std::size_t c = 0; c < kClients; ++c) {
    all_ms.insert(all_ms.end(), lat_ms[c].begin(), lat_ms[c].end());
    out.solved += counts[c][0];
    out.expired += counts[c][1];
    out.shutdown += counts[c][2];
    out.unresolved += counts[c][3];
  }
  out.p50_ms = percentile(all_ms, 0.50);
  out.p99_ms = percentile(all_ms, 0.99);

  // Stop wave: accept a burst without deadlines, stop() underneath it.
  {
    serve::ServeOptions so2;
    so2.workers = 1;
    so2.queue_capacity = 64;
    serve::PartitionServer server2(so2);
    std::vector<std::future<serve::SolveResponse>> futs;
    for (std::size_t i = 0; i < 32; ++i) {
      serve::SolveRequest req;
      req.problem = load_problem(0x57a7u + static_cast<std::uint32_t>(i));
      req.platform_id = "stop_wave";
      auto fut = server2.try_submit(std::move(req));
      if (fut.has_value()) futs.push_back(std::move(*fut));
    }
    server2.stop();
    out.stop_wave_requests = futs.size();
    for (auto& f : futs) {
      if (f.wait_for(std::chrono::seconds(10)) !=
          std::future_status::ready) {
        ++out.stop_wave_unresolved;
      } else {
        (void)f.get();
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t epochs =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 30;
  const std::size_t num_nodes =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20;

  bench::header("faults",
                "fault-injected fleet: static vs online re-partitioning");
  std::printf("epochs=%zu num_nodes=%zu\n\n", epochs, num_nodes);

  const auto t0 = Clock::now();
  const ArmResult stat = run_arm(epochs, num_nodes, /*adaptive=*/false);
  const ArmResult adap = run_arm(epochs, num_nodes, /*adaptive=*/true);
  // Replay the adaptive arm: the whole pipeline — schedule, drift,
  // solver, control loop — must be bit-identical from (seed, config).
  const ArmResult replay = run_arm(epochs, num_nodes, /*adaptive=*/true);
  bool replay_identical = replay.goodput.size() == adap.goodput.size() &&
                          replay.control.triggers == adap.control.triggers;
  for (std::size_t e = 0; replay_identical && e < adap.goodput.size(); ++e) {
    replay_identical = replay.goodput[e] == adap.goodput[e];
  }
  // The flight recorder rides along on both adaptive runs; its dumps
  // (trigger times, reasons, metric deltas) must replay byte-for-byte
  // too, or the recorder is not as passive as it claims.
  const bool flight_replay_identical = replay.flight_json == adap.flight_json;
  const double ab_wall_s = seconds_since(t0);

  const double gain =
      stat.mean_goodput > 0.0 ? adap.mean_goodput / stat.mean_goodput - 1.0
                              : 0.0;

  std::printf("fault schedule      crashes=%zu (%.0f%% of fleet)  "
              "outages=%zu (%.1fs)  burst_bad_steps=%llu\n",
              adap.nodes_crashed,
              100.0 * static_cast<double>(adap.nodes_crashed) /
                  static_cast<double>(num_nodes),
              adap.outages, adap.outage_total_s,
              static_cast<unsigned long long>(adap.burst_bad_steps));
  std::printf("static   mean goodput  %.4f  (final %.4f)\n", stat.mean_goodput,
              stat.goodput.back());
  std::printf("adaptive mean goodput  %.4f  (final %.4f)\n", adap.mean_goodput,
              adap.goodput.back());
  std::printf("adaptive gain          %.1f%%  (gate: >= 15%%)\n", gain * 100.0);
  std::printf("control: triggers=%zu fresh=%zu stale=%zu baseline=%zu "
              "failed_attempts=%zu\n",
              adap.control.triggers, adap.control.fresh_solves,
              adap.control.stale_served, adap.control.baseline_served,
              adap.control.failed_attempts);
  std::printf("control failures by reason: pump_stalled=%zu deadline=%zu "
              "shutdown=%zu expired=%zu infeasible=%zu\n",
              adap.control.failed_pump_stalled, adap.control.failed_deadline,
              adap.control.failed_shutdown, adap.control.failed_expired,
              adap.control.failed_infeasible);
  std::printf("flight recorder: %zu snapshots (BENCH_faults_flight.json)\n",
              adap.flight_snapshots);
  std::printf("replay identical       %s  (flight dump: %s)\n\n",
              replay_identical ? "yes" : "NO — determinism broken",
              flight_replay_identical ? "identical" : "DIVERGED");

  const LadderResult lad = run_ladder();
  std::printf("serve ladder: %zu requests -> solved=%zu expired=%zu "
              "shutdown=%zu unresolved=%zu\n",
              lad.requests, lad.solved, lad.expired, lad.shutdown,
              lad.unresolved);
  std::printf("              p50 %.2f ms  p99 %.2f ms  (report-only)\n",
              lad.p50_ms, lad.p99_ms);
  std::printf("stop wave: %zu accepted, %zu unresolved\n\n",
              lad.stop_wave_requests, lad.stop_wave_unresolved);

  bench::Json j;
  j.set("epochs", epochs);
  j.set("num_nodes", num_nodes);
  j.set("seed", bench_config(epochs, num_nodes).seed);
  j.set("fault_seed", adap.fault_seed);
  j.set("fleet_config_hash", std::to_string(adap.fleet_hash));
  j.set("fault_config_hash", std::to_string(adap.fault_hash));
  j.set("nodes_crashed", adap.nodes_crashed);
  j.set("outages", adap.outages);
  j.set("outage_total_s", adap.outage_total_s);
  j.set("burst_bad_steps", static_cast<std::size_t>(adap.burst_bad_steps));
  j.set("reparented_epochs", adap.reparented);
  j.set("static_mean_goodput", stat.mean_goodput);
  j.set("adaptive_mean_goodput", adap.mean_goodput);
  j.set("static_final_goodput", stat.goodput.back());
  j.set("adaptive_final_goodput", adap.goodput.back());
  j.set("adaptive_gain", gain);
  j.set("replay_identical", static_cast<std::size_t>(replay_identical));
  j.set("control_triggers", adap.control.triggers);
  j.set("control_fresh_solves", adap.control.fresh_solves);
  j.set("control_stale_served", adap.control.stale_served);
  j.set("control_baseline_served", adap.control.baseline_served);
  j.set("control_failed_attempts", adap.control.failed_attempts);
  j.set("control_failed_pump_stalled", adap.control.failed_pump_stalled);
  j.set("control_failed_deadline", adap.control.failed_deadline);
  j.set("control_failed_shutdown", adap.control.failed_shutdown);
  j.set("control_failed_expired", adap.control.failed_expired);
  j.set("control_failed_infeasible", adap.control.failed_infeasible);
  j.set("flight_snapshots", adap.flight_snapshots);
  j.set("flight_replay_identical",
        static_cast<std::size_t>(flight_replay_identical));
  j.set_array("static_goodput_by_epoch", stat.goodput);
  j.set_array("adaptive_goodput_by_epoch", adap.goodput);
  j.set_array("adaptive_predicted_by_epoch", adap.predicted);
  j.set("ab_wall_s", ab_wall_s);
  j.set("ladder_requests", lad.requests);
  j.set("ladder_solved", lad.solved);
  j.set("ladder_expired", lad.expired);
  j.set("ladder_shutdown", lad.shutdown);
  j.set("ladder_unresolved", lad.unresolved);
  j.set("ladder_p50_ms", lad.p50_ms);
  j.set("ladder_p99_ms", lad.p99_ms);
  j.set("server_deadline_expired", lad.server_deadline_expired);
  j.set("server_shed_solves", lad.server_shed_solves);
  j.set("server_submit_timeouts", lad.server_submit_timeouts);
  j.set("stop_wave_requests", lad.stop_wave_requests);
  j.set("stop_wave_unresolved", lad.stop_wave_unresolved);
  j.write("BENCH_faults.json");

  // The adaptive arm's flight dump: one snapshot per divergence trigger
  // / rung transition, with the metric deltas that led up to it.
  if (std::FILE* f = std::fopen("BENCH_faults_flight.json", "w")) {
    std::fwrite(adap.flight_json.data(), 1, adap.flight_json.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_faults_flight.json\n");
  }
  return 0;
}
