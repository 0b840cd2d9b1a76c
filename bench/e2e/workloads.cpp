#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <malloc.h>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <tuple>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "core/wishbone.hpp"
#include "graph/dot.hpp"
#include "partition/formulation.hpp"
#include "partition/preprocess.hpp"
#include "partition/rate_search.hpp"
#include "profile/platform.hpp"
#include "runtime/executor.hpp"
#include "serve/graph_hash.hpp"
#include "serve/server.hpp"
#include "util/alloc_count.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace wishbone::e2e {
namespace {

using Traces = std::map<graph::OperatorId, std::vector<graph::Frame>>;
using Rng = std::mt19937_64;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Independent seed for input stream `stream` of a run.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix(splitmix(seed) ^ (stream * 0x632be59bd9b4e019ull));
}

double uniform(Rng& rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

/// n draws in [0, 1), one per stratum [k/n, (k+1)/n), in seeded order:
/// each block of ops covers its range evenly, so the run-to-run spread
/// of a median does not hinge on how the draws happened to cluster.
std::vector<double> stratified(std::size_t n, Rng& rng) {
  std::vector<double> u(n);
  for (std::size_t k = 0; k < n; ++k) {
    u[k] = (static_cast<double>(k) + uniform(rng)) / static_cast<double>(n);
  }
  std::shuffle(u.begin(), u.end(), rng);
  return u;
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : util::percentile(v, 50.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A run is a number of passes. Each pass sets the workload up afresh
/// (timed; setup_s is the median) and then runs a fixed list of ops, the
/// same in every pass and in the same order, so every op is timed once
/// per pass, the repeats a pass length apart. An op's latency is its
/// fastest repeat. Other tenants of the reference host slow everything
/// down by 1.6x in phases of 0.5 s to over 10 s; the fastest repeat is
/// slow only when one phase covers every pass, so the longer the run,
/// the less such phases show. A pass takes about its workload's
/// `pass_seconds` on the reference host (4-core Xeon, checks included),
/// and --seconds sets the number of passes: a run lasts about --seconds
/// there, every pass does the same work on any host, and the two sides
/// of a comparison time the same ops.
constexpr std::size_t kMinPasses = 3;
/// With --trace: untraced and traced passes alternate, two of each, so
/// both sides get the fastest-of-two and the overhead compares the same
/// ops.
constexpr std::size_t kTracePasses = 4;

std::size_t passes(const Args& a, double pass_seconds) {
  if (a.trace) return kTracePasses;
  return std::max<std::size_t>(
      kMinPasses, static_cast<std::size_t>(std::llround(a.seconds / pass_seconds)));
}
bool traced_pass(const Args& a, std::size_t p) { return a.trace && p % 2 == 1; }

/// Elementwise minimum over passes of equal-length latency vectors.
std::vector<double> fastest(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return {};
  std::vector<double> out = runs.front();
  for (const std::vector<double>& r : runs) {
    for (std::size_t i = 0; i < out.size() && i < r.size(); ++i) {
      out[i] = std::min(out[i], r[i]);
    }
  }
  return out;
}

/// Records the heap in use now if it is the largest yet. Live heap
/// bytes, not peak RSS: with several threads glibc spreads allocations
/// over per-thread arenas, and how much of them stays resident varies
/// by ~20% from run to run with the thread interleaving.
void note_heap(RunReport& rep) {
  const struct mallinfo2 mi = mallinfo2();
  rep.peak_heap_mb = std::max(
      rep.peak_heap_mb,
      static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Fills the end-to-end fields of `rep` from per-pass op latencies
/// (index 0: untraced passes, 1: traced passes); throughput counts
/// `work_per_op` units per op over `clients` concurrent clients.
void finish(RunReport& rep, const std::vector<std::vector<double>> (&lat)[2],
            double work_per_op = 1.0, double clients = 1.0) {
  rep.latency_s = fastest(lat[0]);
  rep.work = static_cast<double>(rep.latency_s.size()) * work_per_op;
  rep.busy_s = sum(rep.latency_s) / clients;
  if (!lat[1].empty()) {
    rep.untraced_s = rep.busy_s;
    rep.traced_s = sum(fastest(lat[1])) / clients;
  }
}

// ------------------------------------------------------------- apps

/// An application graph with its profiling traces (and, for streaming,
/// a longer run of input events).
struct App {
  std::string name;
  graph::Graph g;
  Traces traces;
  std::size_t events = 0;
  Traces stream;
  double native_rate = 0.0;
  Reference reference = Reference::kHeuristic;
  graph::PinAnalysis pins;  ///< for checks; computed lazily, untimed
};

std::unique_ptr<App> eeg_app(std::size_t channels, std::size_t windows,
                             std::uint64_t seed,
                             std::size_t stream_windows = 0) {
  apps::EegConfig cfg;
  cfg.channels = channels;
  cfg.trace_seed = static_cast<std::uint32_t>(seed);
  apps::EegApp e = apps::build_eeg_app(cfg);
  auto a = std::make_unique<App>();
  a->name = "eeg" + std::to_string(channels);
  a->traces = apps::eeg_traces(e, windows);
  a->events = windows;
  if (stream_windows > 0) a->stream = apps::eeg_traces(e, stream_windows);
  a->native_rate = e.full_rate_events_per_sec();
  a->g = std::move(e.g);
  return a;
}

std::unique_ptr<App> speech_app(std::size_t frames, std::uint64_t seed,
                                std::size_t stream_frames = 0) {
  apps::SpeechApp s = apps::build_speech_app();
  auto a = std::make_unique<App>();
  a->name = "speech";
  a->traces =
      apps::speech_traces(s, frames, static_cast<std::uint32_t>(seed));
  a->events = frames;
  if (stream_frames > 0) {
    a->stream = apps::speech_traces(s, stream_frames,
                                    static_cast<std::uint32_t>(seed + 1));
  }
  a->native_rate = apps::SpeechApp::kFullRateEventsPerSec;
  a->reference = Reference::kExhaustive;
  a->g = std::move(s.g);
  return a;
}

const graph::PinAnalysis& pins_of(App& a) {
  if (a.pins.requirement.empty()) {
    a.pins = graph::analyze_pins(a.g, graph::Mode::kPermissive);
  }
  return a.pins;
}

// ------------------------------------------------------ solver counters

/// Solver counters over every solve the ops ran. Search totals come
/// from RateSearchResult; timing and proof status only from the
/// MipResults the benchmark sees directly.
struct SolveStats {
  std::size_t ops = 0;
  std::size_t solves = 0;
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
  std::size_t warm_loaded = 0;
  std::size_t rejected = 0;
  std::size_t seen = 0;
  std::size_t proved = 0;
  std::size_t seen_iterations = 0;
  double seen_ilp_s = 0.0;
  std::vector<double> vertices_after;
  std::vector<double> ilp_rows;
  std::vector<double> ilp_cols;

  void see(const partition::PartitionResult& r) {
    ++seen;
    const ilp::SolveStatus s = r.solver.status;
    if (s == ilp::SolveStatus::kOptimal || s == ilp::SolveStatus::kInfeasible) {
      ++proved;
    }
    seen_iterations += r.solver.lp_iterations;
    seen_ilp_s += r.solver.time_total;
    vertices_after.push_back(static_cast<double>(r.prep.vertices_after));
  }
  void add(const partition::PartitionResult& r) {
    ++solves;
    nodes += r.solver.nodes_explored;
    lp_iterations += r.solver.lp_iterations;
    if (r.solver.warm_basis_loaded) ++warm_loaded;
    if (r.solver.warm_basis_rejected) ++rejected;
    see(r);
  }
  void add_search(const partition::RateSearchResult& r) {
    solves += r.partitions_solved;
    nodes += r.total_bnb_nodes;
    lp_iterations += r.total_lp_iterations;
    warm_loaded += r.probes_with_inherited_basis;
    rejected += r.probes_with_rejected_basis;
    if (r.any_feasible) see(r.partition_at_max);
  }
  void merge(const SolveStats& o) {
    ops += o.ops;
    solves += o.solves;
    nodes += o.nodes;
    lp_iterations += o.lp_iterations;
    warm_loaded += o.warm_loaded;
    rejected += o.rejected;
    seen += o.seen;
    proved += o.proved;
    seen_iterations += o.seen_iterations;
    seen_ilp_s += o.seen_ilp_s;
    vertices_after.insert(vertices_after.end(), o.vertices_after.begin(),
                          o.vertices_after.end());
    ilp_rows.insert(ilp_rows.end(), o.ilp_rows.begin(), o.ilp_rows.end());
    ilp_cols.insert(ilp_cols.end(), o.ilp_cols.begin(), o.ilp_cols.end());
  }
  void fill(std::map<std::string, double>& layer) const {
    const double n = static_cast<double>(solves);
    layer["partition.solves_per_op"] = ratio(n, static_cast<double>(ops));
    layer["partition.vertices_after"] = median(vertices_after);
    layer["partition.ilp_rows"] = median(ilp_rows);
    layer["partition.ilp_cols"] = median(ilp_cols);
    layer["partition.warm_basis_share"] =
        ratio(static_cast<double>(warm_loaded), n);
    layer["partition.rejected_bases"] = static_cast<double>(rejected);
    layer["ilp.nodes_per_solve"] = ratio(static_cast<double>(nodes), n);
    layer["ilp.lp_iterations_per_solve"] =
        ratio(static_cast<double>(lp_iterations), n);
    layer["ilp.lp_iterations_per_ms"] =
        ratio(static_cast<double>(seen_iterations), seen_ilp_s * 1e3);
    layer["ilp.proved_share"] =
        ratio(static_cast<double>(proved), static_cast<double>(seen));
  }
};

// --------------------------------------------------- traced replay

/// Hangs an `ilp.solve` child under the closed span `id`, lasting the
/// solver's own MipResult::time_total and placed `lead_ns` into it (the
/// preprocess and build time the replays measured).
void add_ilp_span(SpanLog& log, std::uint32_t id, double time_total_s,
                  std::uint64_t lead_ns) {
  const Span& s = log.spans()[id - 1];
  const std::uint64_t dur = std::min<std::uint64_t>(
      s.dur_ns, static_cast<std::uint64_t>(time_total_s * 1e9));
  const std::uint64_t start =
      s.start_ns + std::min<std::uint64_t>(lead_ns, s.dur_ns - dur);
  log.add("ilp.solve", id, start, dur);
}

/// Wishbone::run (core/wishbone.cpp) replayed as the public calls it
/// makes, one span per call under `op`, on the same inputs and options.
/// preprocess() and build_ilp() are also timed on their own, as replays:
/// solve_partition repeats both internally, so they only break its time
/// down. Must stay in step with Wishbone::run.
core::CompileReport replay_run(SpanLog& log, std::uint32_t op,
                               const graph::Graph& g,
                               const profile::PlatformModel& plat,
                               const core::CompileOptions& opts,
                               const profile::ProfileData& pd, double rate,
                               SolveStats& st) {
  core::CompileReport rep;
  {
    Scope s(log, "core.report", op);
    rep.profile = pd;
    rep.requested_rate = rate;
  }
  {
    Scope s(log, "graph.pins", op);
    rep.pins = graph::analyze_pins(g, opts.mode);
  }
  auto make = [&](double r) {
    return partition::make_problem(g, rep.pins, pd, plat, r);
  };
  partition::PartitionProblem prob;
  {
    Scope s(log, "partition.make_problem", op);
    prob = make(rate);
  }
  const std::uint64_t lead0 = log.now_ns();
  partition::PartitionProblem work;
  {
    Scope s(log, "partition.preprocess", op, /*replay=*/true);
    work = opts.partition.preprocess ? partition::preprocess(prob) : prob;
  }
  {
    Scope s(log, "partition.build_ilp", op, /*replay=*/true);
    const ilp::LinearProgram model =
        partition::build_ilp(work, opts.partition.formulation);
    st.ilp_rows.push_back(model.num_constraints());
    st.ilp_cols.push_back(model.num_variables());
  }
  const std::uint64_t lead = log.now_ns() - lead0;

  partition::PartitionResult res;
  std::uint32_t solve_id = 0;
  {
    Scope s(log, "partition.solve", op);
    solve_id = s.id();
    res = partition::solve_partition(prob, opts.partition);
  }
  add_ilp_span(log, solve_id, res.solver.time_total, lead);
  st.add(res);

  if (res.feasible) {
    rep.feasible_at_requested_rate = true;
    rep.partition_rate = rate;
    Scope s(log, "partition.expand", op);
    res.sides = partition::expand_assignment(prob, res.sides,
                                             g.num_operators());
    rep.partition = std::move(res);
  } else if (opts.search_rate_on_overload) {
    partition::RateSearchOptions rs;
    rs.partition = opts.partition;
    rs.min_rate = rate / 4096.0;
    rs.max_rate = rate;
    rs.rel_tol = opts.rate_search_rel_tol;
    partition::RateSearchResult found;
    {
      Scope search(log, "partition.rate_search", op);
      // One span per probe: from this call to the next (or to the end
      // of the search), so it holds the probe's make_problem and the
      // solve_partition that follows it.
      std::uint32_t probe = 0;
      auto problem_at = [&](double r) {
        if (probe != 0) log.close(probe);
        probe = log.open("partition.probe", search.id());
        Scope mp(log, "partition.make_problem", probe);
        return make(r);
      };
      found = partition::max_sustainable_rate(problem_at, rs);
      if (probe != 0) log.close(probe);
    }
    st.add_search(found);
    if (found.any_feasible) {
      rep.max_sustainable_rate = found.max_rate;
      rep.partition_rate = found.max_rate;
      partition::PartitionProblem prob_max;
      {
        Scope s(log, "partition.make_problem", op);
        prob_max = make(found.max_rate);
      }
      rep.partition = std::move(found.partition_at_max);
      Scope s(log, "partition.expand", op);
      rep.partition.sides = partition::expand_assignment(
          prob_max, rep.partition.sides, g.num_operators());
    }
  }

  {
    Scope s(log, "core.report", op);
    std::ostringstream msg;
    msg << (rep.partition.feasible ? "feasible" : "no partition fits")
        << " at " << rep.partition_rate << " events/s on " << plat.name
        << ": " << rep.partition.node_partition_size << " operators, CPU "
        << rep.partition.cpu_used << ", uplink " << rep.partition.net_used;
    rep.message = msg.str();
  }
  Scope s(log, "graph.dot", op);
  graph::DotOptions dot;
  dot.heat = pd.heat(plat);
  if (rep.partition.feasible &&
      rep.partition.sides.size() == g.num_operators()) {
    dot.assignment = rep.partition.sides;
  }
  std::vector<std::string> labels;
  labels.reserve(g.num_edges());
  const double label_rate =
      rep.partition_rate > 0 ? rep.partition_rate : rate;
  for (std::size_t ei = 0; ei < g.num_edges(); ++ei) {
    std::ostringstream l;
    l << pd.bandwidth(ei, label_rate) << " B/s";
    labels.push_back(l.str());
  }
  dot.edge_labels = std::move(labels);
  dot.graph_name = "wishbone_" + plat.name;
  rep.dot = graph::to_dot(g, dot);
  return rep;
}

/// Effective duration of op root `op`: its span minus replay children
/// (which are recorded after it).
double effective_s(const SpanLog& log, std::uint32_t op) {
  const std::vector<Span>& spans = log.spans();
  std::uint64_t replay = 0;
  for (std::size_t i = op; i < spans.size(); ++i) {
    if (spans[i].parent == op && spans[i].replay) replay += spans[i].dur_ns;
  }
  return static_cast<double>(spans[op - 1].dur_ns - replay) * 1e-9;
}

// --------------------------------------------------- compile checks

/// Checks one CompileReport against the exact problem at the rate it
/// answers for. References for "infeasible" verdicts are memoized per
/// (app, platform, rate): the EEG greedy cut takes ~0.1 s when nothing
/// fits, and rate sweeps ask the same rates again.
class CompileChecker {
 public:
  std::string check(App& app, const profile::PlatformModel& plat,
                    const core::CompileReport& rep, double rel_tol) {
    const graph::PinAnalysis& pins = pins_of(app);
    auto problem = [&](double rate) {
      return partition::make_problem(app.g, pins, rep.profile, plat, rate);
    };
    const double rate = rep.requested_rate;
    if (rep.feasible_at_requested_rate) {
      const partition::PartitionProblem p = problem(rate);
      std::string r = check_cut(p, rep.partition.sides, rep.partition.objective);
      if (!r.empty()) return r;
      return check_objective(rep.partition.objective,
                             reference_answer(p, app.reference),
                             app.reference);
    }
    std::string r = check_infeasible(memo(app, plat, rate, problem),
                                     app.reference);
    if (!r.empty() || !rep.max_sustainable_rate) return r;
    const double max_rate = *rep.max_sustainable_rate;
    r = check_cut(problem(max_rate), rep.partition.sides,
                  rep.partition.objective);
    if (!r.empty()) return r;
    // The search may stop anywhere within rel_tol below the true
    // maximum; a cut the baseline finds above that means it stopped
    // short.
    const double above = max_rate * (1.0 + rel_tol);
    if (memo(app, plat, above, problem).feasible) {
      return "max rate below one the baseline sustains";
    }
    return "";
  }

 private:
  template <typename Problem>
  const ReferenceAnswer& memo(const App& app,
                              const profile::PlatformModel& plat,
                              double rate, Problem&& problem) {
    const auto key = std::make_tuple(app.name, plat.name, rate);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, reference_answer(problem(rate), app.reference))
               .first;
    }
    return it->second;
  }

  std::map<std::tuple<std::string, std::string, double>, ReferenceAnswer>
      memo_;
};

// --------------------------------------------------- compile_native

struct CompileOp {
  std::size_t app = 0;
  std::size_t platform = 0;
  double rate = 0.0;
};

struct CompileState {
  std::vector<std::unique_ptr<App>> apps;  // eeg22, eeg8, speech
  std::vector<profile::PlatformModel> platforms;
  core::CompileOptions opts;
  /// [app][platform]: one compiler per target, as a user would hold.
  std::vector<std::vector<std::unique_ptr<core::Wishbone>>> wb;
};

/// The six platforms other than TMoteSky: every native-rate request
/// fits on them, so each compile is answered at the requested rate.
std::vector<profile::PlatformModel> roomy_platforms() {
  std::vector<profile::PlatformModel> out;
  for (const char* n :
       {"NokiaN80", "iPhone", "Gumstix", "MerakiMini", "VoxNet", "Scheme"}) {
    out.push_back(profile::platform_by_name(n));
  }
  return out;
}

std::unique_ptr<CompileState> compile_setup(std::uint64_t seed) {
  auto s = std::make_unique<CompileState>();
  s->apps.push_back(eeg_app(22, 8, stream_seed(seed, 1)));
  s->apps.push_back(eeg_app(8, 8, stream_seed(seed, 2)));
  s->apps.push_back(speech_app(200, stream_seed(seed, 3)));
  s->platforms = roomy_platforms();
  s->opts.partition.mip.max_nodes = 400;
  s->opts.partition.mip.threads = 1;
  for (auto& a : s->apps) {
    s->wb.emplace_back();
    for (const profile::PlatformModel& p : s->platforms) {
      s->wb.back().push_back(
          std::make_unique<core::Wishbone>(a->g, p, s->opts));
    }
  }
  return s;
}

/// The op stream: blocks of 30 requests, 18 EEG-22 / 6 EEG-8 / 6 speech
/// (the 60/20/20 mix), each app spread evenly over the six platforms,
/// rates stratified over native x [0.25, 1], block order shuffled.
class CompileOps {
 public:
  CompileOps(std::uint64_t seed, std::vector<double> native)
      : rng_(stream_seed(seed, 4)), native_(std::move(native)) {}

  const CompileOp& at(std::size_t i) {
    while (ops_.size() <= i) add_block();
    return ops_[i];
  }

 private:
  void add_block() {
    std::vector<CompileOp> block;
    const std::size_t counts[] = {18, 6, 6};
    for (std::size_t a = 0; a < 3; ++a) {
      const std::vector<double> u = stratified(counts[a], rng_);
      for (std::size_t k = 0; k < counts[a]; ++k) {
        block.push_back({a, k % 6, native_[a] * (0.25 + 0.75 * u[k])});
      }
    }
    std::shuffle(block.begin(), block.end(), rng_);
    ops_.insert(ops_.end(), block.begin(), block.end());
  }

  Rng rng_;
  std::vector<double> native_;
  std::vector<CompileOp> ops_;
};

}  // namespace

RunReport run_compile_native(const Args& args) {
  RunReport rep;
  constexpr std::size_t kCompiles = 480;  // per pass, ~3.3 s
  std::vector<std::vector<double>> lat[2];
  if (args.trace) rep.logs.push_back(std::make_unique<SpanLog>(Clock::now()));
  SolveStats stats;
  CompileChecker checker;
  for (std::size_t pass = 0; pass < passes(args, 3.3); ++pass) {
    const util::Stopwatch setup_clock;
    const std::unique_ptr<CompileState> st = compile_setup(args.seed);
    rep.setup_s.push_back(setup_clock.elapsed_seconds());
    CompileOps ops(args.seed, {st->apps[0]->native_rate,
                               st->apps[1]->native_rate,
                               st->apps[2]->native_rate});
    const bool traced = traced_pass(args, pass);
    std::vector<double>& out = lat[traced].emplace_back();
    for (std::size_t i = 0; i < kCompiles; ++i) {
      const CompileOp& op = ops.at(i);
      App& a = *st->apps[op.app];
      const profile::PlatformModel& plat = st->platforms[op.platform];
      core::CompileReport r;
      if (traced) {
        // The op replayed stage by stage (see replay_run).
        SpanLog& log = *rep.logs.front();
        const std::uint32_t root = log.open("op.compile", 0);
        profile::ProfileData pd;
        {
          Scope s(log, "profile.run", root);
          profile::Profiler prof(a.g);
          pd = prof.run(a.traces, a.events);
          a.g.reset_state();
        }
        r = replay_run(log, root, a.g, plat, st->opts, pd, op.rate, stats);
        log.close(root);
        ++stats.ops;
        out.push_back(effective_s(log, root));
      } else {
        const util::Stopwatch clock;
        r = st->wb[op.app][op.platform]->compile(a.traces, a.events, op.rate);
        out.push_back(clock.elapsed_seconds());
      }
      rep.tally.record(
          checker.check(a, plat, r, st->opts.rate_search_rel_tol));
      note_heap(rep);
    }
  }
  finish(rep, lat);
  stats.fill(rep.layer);
  return rep;
}

// --------------------------------------------------------- rate_search

namespace {

struct SearchState {
  std::unique_ptr<App> eeg;
  profile::ProfileData pd;
  profile::PlatformModel plat;
  core::CompileOptions opts;
  std::unique_ptr<core::Wishbone> wb;
};

std::unique_ptr<SearchState> search_setup(std::uint64_t seed) {
  auto s = std::make_unique<SearchState>();
  s->eeg = eeg_app(22, 8, stream_seed(seed, 1));
  profile::Profiler prof(s->eeg->g);
  s->pd = prof.run(s->eeg->traces, s->eeg->events);
  s->eeg->g.reset_state();
  s->plat = profile::tmote_sky();
  s->opts.partition.mip.max_nodes = 100;
  s->opts.partition.mip.threads = 1;
  s->wb = std::make_unique<core::Wishbone>(s->eeg->g, s->plat, s->opts);
  return s;
}

/// Requested rates of one sweep: native x 16^((k + 0.5) / n), the design
/// aid's question "how far over budget am I?" asked between 1x and 16x
/// native. The grid is fixed and only its order comes from the seed:
/// search time jumps about with the rate (0.26 to 1.7 s over 32 rates in
/// this range on the reference host), so a seeded draw of a few rates
/// would swing the run's median with the draw.
std::vector<double> sweep_rates(double native, std::size_t n, Rng& rng) {
  std::vector<double> r;
  for (std::size_t k = 0; k < n; ++k) {
    r.push_back(native * std::pow(16.0, (static_cast<double>(k) + 0.5) /
                                            static_cast<double>(n)));
  }
  std::shuffle(r.begin(), r.end(), rng);
  return r;
}

}  // namespace

RunReport run_rate_search(const Args& args) {
  RunReport rep;
  Rng rng(stream_seed(args.seed, 5));
  std::vector<double> order;
  std::vector<std::vector<double>> lat[2];
  if (args.trace) rep.logs.push_back(std::make_unique<SpanLog>(Clock::now()));
  SolveStats stats;
  CompileChecker checker;
  std::vector<double> max_rates;
  for (std::size_t pass = 0; pass < passes(args, 3.6); ++pass) {
    const util::Stopwatch setup_clock;
    const std::unique_ptr<SearchState> st = search_setup(args.seed);
    rep.setup_s.push_back(setup_clock.elapsed_seconds());
    if (order.empty()) order = sweep_rates(st->eeg->native_rate, 3, rng);
    const bool traced = traced_pass(args, pass);
    std::vector<double>& out = lat[traced].emplace_back();
    for (double rate : order) {
      core::CompileReport r;
      if (traced) {
        SpanLog& log = *rep.logs.front();
        const std::uint32_t root = log.open("op.search", 0);
        r = replay_run(log, root, st->eeg->g, st->plat, st->opts, st->pd,
                       rate, stats);
        log.close(root);
        ++stats.ops;
        out.push_back(effective_s(log, root));
      } else {
        const util::Stopwatch clock;
        r = st->wb->partition_only(st->pd, rate);
        out.push_back(clock.elapsed_seconds());
      }
      rep.tally.record(checker.check(*st->eeg, st->plat, r,
                                     st->opts.rate_search_rel_tol));
      if (r.max_sustainable_rate) max_rates.push_back(*r.max_sustainable_rate);
      note_heap(rep);
    }
  }
  finish(rep, lat);
  stats.fill(rep.layer);
  rep.layer["partition.max_rate_eps"] = median(max_rates);
  return rep;
}

// --------------------------------------------------------- serve_drift

namespace {

struct DeviceClass {
  std::size_t app = 0;  // index into ServeState::apps
  std::size_t platform = 0;
  double base_rate = 0.0;
};

struct Device {
  std::uint8_t cls = 0;
  float scale = 1.0f;
  std::uint64_t walk = 0;  ///< splitmix state of its drift walk
};

struct ServeApp {
  std::unique_ptr<App> app;
  profile::ProfileData pd;
  std::uint64_t hash = 0;
};

struct ServeState {
  std::vector<ServeApp> apps;  // speech, eeg22
  std::vector<profile::PlatformModel> platforms;
  std::vector<DeviceClass> classes;
  std::vector<Device> devices;
  std::unique_ptr<serve::PartitionServer> server;
};

constexpr std::size_t kDevices = 4000;
constexpr std::size_t kRounds = 4;  ///< measured rounds per episode
constexpr std::size_t kClients = 2;

/// One ±1.5% step of a device's scale (or none), kept in [0.85, 1.2].
void drift(Device& d) {
  d.walk = splitmix(d.walk);
  const double step = 1.0 + 0.015 * (static_cast<double>(d.walk % 3) - 1.0);
  d.scale = static_cast<float>(
      std::clamp(static_cast<double>(d.scale) * step, 0.85, 1.2));
}

serve::SolveRequest request_for(const ServeState& s, const Device& d) {
  const DeviceClass& c = s.classes[d.cls];
  const ServeApp& a = s.apps[c.app];
  serve::SolveRequest req;
  req.problem = partition::make_problem(
      a.app->g, a.app->pins, a.pd, s.platforms[c.platform],
      c.base_rate * static_cast<double>(d.scale));
  req.platform_id = s.platforms[c.platform].name;
  req.graph_hash = a.hash;
  return req;
}

/// Runs `body(client)` on kClients clients: this thread is client 0, so
/// the run never has more than kClients + server workers threads.
void on_clients(const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < kClients; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();
}

std::unique_ptr<ServeState> serve_setup(std::uint64_t seed) {
  auto s = std::make_unique<ServeState>();
  s->apps.resize(2);
  s->apps[0].app = speech_app(200, stream_seed(seed, 1));
  s->apps[1].app = eeg_app(22, 8, stream_seed(seed, 2));
  for (ServeApp& a : s->apps) {
    profile::Profiler prof(a.app->g);
    a.pd = prof.run(a.app->traces, a.app->events);
    a.app->g.reset_state();
    pins_of(*a.app);
    a.hash = serve::canonical_graph_hash(a.app->g);
  }
  for (const char* n : {"Gumstix", "iPhone", "VoxNet", "TMoteSky"}) {
    s->platforms.push_back(profile::platform_by_name(n));
  }
  // Both apps at native rate on the three roomy platforms, plus speech
  // on TMoteSky at 3.1 ev/s, where the CPU budget binds.
  for (std::size_t app = 0; app < 2; ++app) {
    for (std::size_t p = 0; p < 3; ++p) {
      s->classes.push_back({app, p, s->apps[app].app->native_rate});
    }
  }
  s->classes.push_back({0, 3, 3.1});
  // The fleet is 60% EEG-22 (3 per platform in every 15 devices), 20%
  // speech on the roomy platforms and 20% speech on TMoteSky, so the
  // median request is an EEG hit: a key over a 1412-vertex profile.
  const std::uint8_t mix15[] = {3, 3, 3, 4, 4, 4, 5, 5, 5, 0, 1, 2, 6, 6, 6};

  Rng rng(stream_seed(seed, 3));
  std::vector<std::uint8_t> cls(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) cls[d] = mix15[d % 15];
  std::shuffle(cls.begin(), cls.end(), rng);
  for (std::size_t d = 0; d < kDevices; ++d) {
    Device dev;
    dev.cls = cls[d];
    dev.scale = static_cast<float>(0.9 + 0.2 * uniform(rng));
    dev.walk = stream_seed(seed, 100 + d);
    s->devices.push_back(dev);
  }

  serve::ServeOptions so;
  so.workers = 2;
  so.partition.mip.max_nodes = 400;
  so.partition.mip.threads = 1;
  s->server = std::make_unique<serve::PartitionServer>(so);

  // Round 0 fills the cache. Its answers are not checked here: every
  // later request that hits one of these entries checks it.
  on_clients([&](std::size_t c) {
    for (std::size_t d = c; d < kDevices; d += kClients) {
      (void)s->server->submit(request_for(*s, s->devices[d])).get();
    }
  });
  return s;
}

/// Per-client results of the measured rounds.
struct ServeClient {
  std::vector<double> latency_s;
  Tally tally;
  SolveStats stats;
  std::size_t hits = 0;
  std::size_t stale_answers = 0;
  double wait_s = 0.0;  ///< Σ (latency - solve_s) over non-hits
  SpanLog* log = nullptr;  ///< set on traced passes
};

/// Checks a served answer against the requester's exact problem.
/// Solved answers must be exact. A hit or coalesced answer was solved
/// for another profile in the same cache cell, whose every load is
/// within a factor (1 + resolution) of this one, so it is held to the
/// budgets and objective within that factor; an answer right only
/// within that factor counts in `stale` (the cache does not re-check
/// hits against the exact profile yet).
std::string check_served(const serve::SolveResponse& resp,
                         const partition::PartitionProblem& p,
                         Reference kind, double resolution, bool* stale) {
  *stale = false;
  if (resp.source == serve::ResponseSource::kShutdown ||
      resp.source == serve::ResponseSource::kExpired) {
    return "request refused";
  }
  const partition::PartitionResult& r = *resp.result;
  const bool exact = resp.source == serve::ResponseSource::kSolved;
  if (exact) {
    if (!r.feasible) return check_infeasible(reference_answer(p, kind), kind);
    std::string why = check_cut(p, r.sides, r.objective);
    if (!why.empty()) return why;
    return check_objective(r.objective, reference_answer(p, kind), kind);
  }
  const double slack = 1.0 + resolution;
  if (!r.feasible) {
    std::string why =
        check_infeasible(reference_answer(scaled(p, slack), kind), kind);
    if (why.empty()) *stale = reference_answer(p, kind).feasible;
    return why;
  }
  std::string why = check_cut(p, r.sides, r.objective, slack);
  if (why.empty()) {
    *stale = !partition::evaluate_assignment(p, r.sides).feasible(p);
  }
  return why;
}

/// Measured rounds 1..kRounds of one episode: client c serves devices
/// c, c + kClients, ... in turn, drifting each before its request.
/// Building the request and checking the answer are client think time,
/// outside the timed submit -> get.
void serve_rounds(ServeState& st, std::vector<ServeClient>& clients,
                  bool traced) {
  const double resolution = st.server->options().profile_resolution;
  on_clients([&](std::size_t c) {
    ServeClient& me = clients[c];
    for (std::size_t round = 1; round <= kRounds; ++round) {
      for (std::size_t d = c; d < kDevices; d += kClients) {
        Device& dev = st.devices[d];
        drift(dev);
        serve::SolveRequest req = request_for(st, dev);
        const Reference kind = st.apps[st.classes[dev.cls].app].app->reference;
        const partition::PartitionProblem problem = req.problem;

        serve::SolveResponse resp;
        double latency = 0.0;
        if (traced) {
          SpanLog& log = *me.log;
          const std::uint32_t root = log.open("op.request", 0);
          {
            Scope s(log, "serve.key", root, /*replay=*/true);
            (void)st.server->key_for(req);
          }
          std::uint32_t call = 0;
          {
            Scope s(log, "serve.submit_get", root);
            call = s.id();
            resp = st.server->submit(std::move(req)).get();
          }
          log.close(root);
          if (resp.source == serve::ResponseSource::kSolved) {
            const Span& sp = log.spans()[call - 1];
            const auto solve_ns = std::min<std::uint64_t>(
                sp.dur_ns, static_cast<std::uint64_t>(resp.solve_s * 1e9));
            const std::uint32_t solve =
                log.add("partition.solve", call,
                        sp.start_ns + sp.dur_ns - solve_ns, solve_ns);
            add_ilp_span(log, solve, resp.result->solver.time_total, 0);
          }
          latency = effective_s(log, root);
        } else {
          const util::Stopwatch clock;
          resp = st.server->submit(std::move(req)).get();
          latency = clock.elapsed_seconds();
        }

        me.latency_s.push_back(latency);
        if (resp.source == serve::ResponseSource::kCacheHit) {
          ++me.hits;
        } else {
          me.wait_s += std::max(0.0, latency - resp.solve_s);
        }
        if (resp.source == serve::ResponseSource::kSolved) {
          me.stats.add(*resp.result);
        }
        ++me.stats.ops;
        bool stale = false;
        me.tally.record(check_served(resp, problem, kind, resolution, &stale));
        if (stale) ++me.stale_answers;
      }
    }
  });
}

}  // namespace

RunReport run_serve_drift(const Args& args) {
  RunReport rep;
  // Each pass is an episode: a fresh server whose set-up (round 0)
  // fills the cache, then kRounds measured rounds. Every episode replays
  // the same seeded fleet, so request i of a client is the same request
  // in every pass.
  if (args.trace) {
    for (std::size_t c = 0; c < kClients; ++c) {
      rep.logs.push_back(std::make_unique<SpanLog>(Clock::now()));
    }
  }
  std::vector<std::vector<double>> lat[2];
  ServeClient total[2];  // counters summed over passes, by traced
  const std::size_t n_passes = passes(args, 5.4);
  for (std::size_t pass = 0; pass < n_passes; ++pass) {
    const util::Stopwatch setup_clock;
    std::unique_ptr<ServeState> st = serve_setup(args.seed);
    rep.setup_s.push_back(setup_clock.elapsed_seconds());
    const bool traced = traced_pass(args, pass);
    std::vector<ServeClient> clients(kClients);
    if (traced) {
      for (std::size_t c = 0; c < kClients; ++c) clients[c].log = rep.logs[c].get();
    }
    note_heap(rep);
    serve_rounds(*st, clients, traced);
    note_heap(rep);
    st.reset();  // joins the server's workers

    std::vector<double>& out = lat[traced].emplace_back();
    ServeClient& t = total[traced];
    for (ServeClient& c : clients) {
      out.insert(out.end(), c.latency_s.begin(), c.latency_s.end());
      rep.tally.merge(c.tally);
      t.stats.merge(c.stats);
      t.hits += c.hits;
      t.stale_answers += c.stale_answers;
      t.wait_s += c.wait_s;
    }
  }
  finish(rep, lat, 1.0, static_cast<double>(kClients));

  const ServeClient& u = total[0];
  const auto per_pass = [&](std::size_t n) {
    return std::to_string(n / lat[0].size());
  };
  if (!args.trace) {
    rep.notes.push_back(
        "serve: per pass " + per_pass(u.hits) + " hits, " +
        per_pass(u.stats.solves) + " solved, " +
        per_pass(u.stats.ops - u.hits - u.stats.solves) + " coalesced; " +
        per_pass(u.stale_answers) +
        " answers right only within their cache cell");
  }

  const ServeClient& t = total[1];
  double op_s = 0.0;
  for (const std::vector<double>& l : lat[1]) op_s += sum(l);
  t.stats.fill(rep.layer);
  rep.layer["serve.hit_share"] = ratio(static_cast<double>(t.hits),
                                       static_cast<double>(t.stats.ops));
  rep.layer["serve.stale_answers"] =
      ratio(static_cast<double>(t.stale_answers), kTracePasses / 2.0);
  rep.layer["serve.wait_share"] = ratio(t.wait_s, op_s);
  return rep;
}

// --------------------------------------------------------- stream_exec

namespace {

/// One compiled program streaming through its own executor.
struct Program {
  const char* span = "";  ///< span name of its chunk runs
  graph::Graph* g = nullptr;
  std::vector<graph::Side> cut;
  std::unique_ptr<runtime::PartitionedExecutor> ex;
  std::vector<Traces> chunks;  ///< distinct input slices, cycled
  std::size_t chunk_events = 0;
  std::size_t samples_per_event = 0;
};

struct StreamState {
  std::unique_ptr<App> eeg;
  std::unique_ptr<App> speech;
  graph::Graph speech2;  ///< second speech instance for the iPhone cut
  std::vector<Program> programs;
  // The compiles that produced the cuts, checked after setup.
  std::vector<core::CompileReport> compiled;
  std::vector<profile::PlatformModel> compiled_on;
};

constexpr std::size_t kEegChunk = 4;       // windows per chunk
constexpr std::size_t kSpeechChunk = 125;  // frames per chunk
constexpr std::size_t kChunks = 4;         // distinct slices per program

std::vector<Traces> slices(const Traces& t, std::size_t per, std::size_t n) {
  std::vector<Traces> out(n);
  for (const auto& [op, frames] : t) {
    for (std::size_t k = 0; k < n; ++k) {
      out[k][op].assign(frames.begin() + static_cast<std::ptrdiff_t>(k * per),
                        frames.begin() +
                            static_cast<std::ptrdiff_t>((k + 1) * per));
    }
  }
  return out;
}

std::unique_ptr<StreamState> stream_setup(std::uint64_t seed) {
  auto s = std::make_unique<StreamState>();
  s->eeg = eeg_app(22, 8, stream_seed(seed, 1), kEegChunk * kChunks);
  s->speech = speech_app(200, stream_seed(seed, 2), kSpeechChunk * kChunks);
  core::CompileOptions opts;
  opts.partition.mip.max_nodes = 400;
  opts.partition.mip.threads = 1;
  auto compile = [&](App& a, const char* platform) {
    const profile::PlatformModel plat = profile::platform_by_name(platform);
    core::Wishbone wb(a.g, plat, opts);
    s->compiled.push_back(wb.compile(a.traces, a.events, a.native_rate));
    s->compiled_on.push_back(plat);
    return s->compiled.back().partition.sides;
  };
  const std::vector<graph::Side> eeg_cut = compile(*s->eeg, "Gumstix");
  const std::vector<graph::Side> tmote_cut = compile(*s->speech, "TMoteSky");
  const std::vector<graph::Side> iphone_cut = compile(*s->speech, "iPhone");
  s->speech2 = s->speech->g.clone();
  s->speech2.reset_state();

  auto add = [&](const char* span, graph::Graph& g,
                 const std::vector<graph::Side>& cut, const Traces& stream,
                 std::size_t per, std::size_t samples) {
    Program p;
    p.span = span;
    p.g = &g;
    p.cut = cut;
    p.ex = std::make_unique<runtime::PartitionedExecutor>(g, cut);
    p.ex->set_collect_sink_output(false);
    p.chunks = slices(stream, per, kChunks);
    p.chunk_events = per;
    p.samples_per_event = samples;
    s->programs.push_back(std::move(p));
  };
  add("runtime.eeg_gumstix", s->eeg->g, eeg_cut, s->eeg->stream, kEegChunk,
      22 * 512);
  add("runtime.speech_tmote", s->speech->g, tmote_cut, s->speech->stream,
      kSpeechChunk, 200);
  add("runtime.speech_iphone", s->speech2, iphone_cut, s->speech->stream,
      kSpeechChunk, 200);
  for (Program& p : s->programs) {  // warm pools, FIFOs and plan caches
    for (const Traces& c : p.chunks) (void)p.ex->run(c, p.chunk_events);
  }
  return s;
}

bool same_frame(const graph::Frame& a, const graph::Frame& b) {
  return a.encoding() == b.encoding() && a.size() == b.size() &&
         std::memcmp(a.samples().data(), b.samples().data(),
                     a.size() * sizeof(float)) == 0;
}

/// What the radio does to a frame crossing the cut: only its declared
/// encoding travels, so int16 samples arrive rounded to the nearest
/// integer and clamped to the int16 range; float32 samples arrive as is.
class WireOp final : public graph::OperatorImpl {
 public:
  void process(std::size_t, const graph::Frame& in,
               graph::Context& ctx) override {
    std::vector<float> out = in.samples();
    if (in.encoding() == graph::Encoding::kInt16) {
      for (float& x : out) {
        x = static_cast<float>(std::clamp(
            std::nearbyint(static_cast<double>(x)), -32768.0, 32767.0));
      }
    }
    ctx.emit(graph::Frame(std::move(out), in.encoding()));
  }
  [[nodiscard]] std::unique_ptr<graph::OperatorImpl> clone() const override {
    return std::make_unique<WireOp>();
  }
};

/// A fresh all-on-node copy of `g` with a WireOp on every edge `cut`
/// sends from node to server; edges keep their order, so each operator
/// emits to its consumers in the same order as in `g`.
graph::Graph wire_reference(const graph::Graph& g,
                            const std::vector<graph::Side>& cut) {
  graph::Graph ref;
  for (graph::OperatorId v = 0; v < g.num_operators(); ++v) {
    ref.add_operator(g.info(v), g.impl(v) ? g.impl(v)->clone() : nullptr);
  }
  for (const graph::Edge& e : g.edges()) {
    if (cut[e.from] == graph::Side::kNode &&
        cut[e.to] == graph::Side::kServer) {
      graph::OperatorInfo info;
      info.name = "wire." + g.info(e.from).name;
      const graph::OperatorId w =
          ref.add_operator(info, std::make_unique<WireOp>());
      ref.connect(e.from, w);
      ref.connect(w, e.to, e.to_port);
    } else {
      ref.connect(e.from, e.to, e.to_port);
    }
  }
  ref.reset_state();
  return ref;
}

/// Sink frames of `got` that differ from `want` (missing ones included),
/// and how many were compared.
std::pair<std::size_t, std::size_t> mismatches(const Traces& want,
                                               const Traces& got) {
  std::size_t bad = 0, compared = 0;
  for (const auto& [sink, frames] : want) {
    const auto it = got.find(sink);
    const std::size_t n = it == got.end() ? 0 : it->second.size();
    bad += std::max(n, frames.size()) - std::min(n, frames.size());
    for (std::size_t i = 0; i < std::min(n, frames.size()); ++i) {
      ++compared;
      if (!same_frame(frames[i], it->second[i])) ++bad;
    }
  }
  return {bad, compared};
}

/// Streams every chunk of `p` from reset state with sink collection on
/// and compares its sink frames, bit for bit, with an all-on-node run of
/// the same events whose cut edges apply the wire encoding (WireOp).
/// Records one checked op per event. Events whose output also differs
/// from a plain all-on-node run, because the wire rounded a fractional
/// sample tagged int16, are added to `lossy`.
void verify(Program& p, Tally& tally, std::size_t& lossy) {
  const std::vector<graph::Side> all_node(p.g->num_operators(),
                                          graph::Side::kNode);
  graph::Graph wired = wire_reference(*p.g, p.cut);
  runtime::PartitionedExecutor wired_ex(
      wired,
      std::vector<graph::Side>(wired.num_operators(), graph::Side::kNode));
  graph::Graph plain = p.g->clone();
  plain.reset_state();
  runtime::PartitionedExecutor plain_ex(plain, all_node);
  p.g->reset_state();
  p.ex->set_collect_sink_output(true);
  for (const Traces& c : p.chunks) {
    const Traces got = p.ex->run(c, p.chunk_events);
    const auto [bad, compared] = mismatches(wired_ex.run(c, p.chunk_events), got);
    lossy += std::min(p.chunk_events,
                      mismatches(plain_ex.run(c, p.chunk_events), got).first);
    if (compared == 0) {
      tally.record("no sink output to compare", p.chunk_events);
      continue;
    }
    const std::size_t failed = std::min(bad, p.chunk_events);
    tally.record("sink output differs from all-on-node run", failed);
    tally.record("", p.chunk_events - failed);
  }
  p.ex->set_collect_sink_output(false);
  p.g->reset_state();
}

}  // namespace

RunReport run_stream_exec(const Args& args) {
  RunReport rep;
  // One op is one input sample. A round runs one chunk of every
  // program; its time over its samples is the per-sample latency.
  constexpr std::size_t kStreamRounds = 1680;  // per pass, ~2 s
  std::vector<std::vector<double>> lat[2];
  if (args.trace) rep.logs.push_back(std::make_unique<SpanLog>(Clock::now()));
  CompileChecker checker;
  std::size_t round_samples = 0, round_events = 0, lossy = 0;
  std::uint64_t allocs = 0, cut_bytes = 0, events = 0;
  for (std::size_t pass = 0; pass < passes(args, 2.0); ++pass) {
    const util::Stopwatch setup_clock;
    const std::unique_ptr<StreamState> st = stream_setup(args.seed);
    rep.setup_s.push_back(setup_clock.elapsed_seconds());

    App* compiled_app[] = {st->eeg.get(), st->speech.get(), st->speech.get()};
    for (std::size_t i = 0; i < st->compiled.size(); ++i) {
      rep.tally.record(checker.check(
          *compiled_app[i], st->compiled_on[i], st->compiled[i],
          core::CompileOptions{}.rate_search_rel_tol));
    }
    std::size_t pass_lossy = 0;
    for (Program& p : st->programs) verify(p, rep.tally, pass_lossy);
    if (pass == 0) lossy = pass_lossy;

    round_samples = round_events = 0;
    for (const Program& p : st->programs) {
      round_samples += p.chunk_events * p.samples_per_event;
      round_events += p.chunk_events;
    }
    const bool traced = traced_pass(args, pass);
    SpanLog* log = traced ? rep.logs.front().get() : nullptr;
    std::vector<double>& out = lat[traced].emplace_back();
    out.reserve(kStreamRounds);
    std::uint64_t bytes0 = 0;
    for (const Program& p : st->programs) bytes0 += p.ex->stats().cut_payload_bytes;
    const std::uint64_t a0 = util::allocation_count();
    for (std::size_t r = 0; r < kStreamRounds; ++r) {
      const util::Stopwatch clock;
      const std::uint32_t root = log ? log->open("op.round", 0) : 0;
      for (Program& p : st->programs) {
        std::optional<Scope> s;
        if (log) s.emplace(*log, p.span, root);
        (void)p.ex->run(p.chunks[r % kChunks], p.chunk_events);
      }
      if (log) log->close(root);
      out.push_back(log ? effective_s(*log, root) : clock.elapsed_seconds());
    }
    if (!traced) {
      allocs += util::allocation_count() - a0;
      for (const Program& p : st->programs) {
        cut_bytes += p.ex->stats().cut_payload_bytes;
      }
      cut_bytes -= bytes0;
      events += kStreamRounds * round_events;
    }
    rep.tally.record("", kStreamRounds * round_events);
    note_heap(rep);
  }
  finish(rep, lat, static_cast<double>(round_samples));
  for (double& s : rep.latency_s) s /= static_cast<double>(round_samples);

  rep.layer["runtime.allocs_per_event"] =
      ratio(static_cast<double>(allocs), static_cast<double>(events));
  rep.layer["runtime.cut_bytes_per_event"] =
      ratio(static_cast<double>(cut_bytes), static_cast<double>(events));
  rep.layer["runtime.lossy_events"] = static_cast<double>(lossy);
  rep.notes.push_back(
      "stream: " + std::to_string(lossy) +
      " verified events differ from a plain all-on-node run (int16 wire "
      "rounding)");
  return rep;
}

}  // namespace wishbone::e2e
