// The closure fast path (partition/closure.hpp): the min-weight closure
// and its certificate, solve_partition's answers against the dense
// simplex oracle on random instances, and the compile grid's cuts
// against the branch-and-bound path they replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/eeg.hpp"
#include "apps/speech.hpp"
#include "core/wishbone.hpp"
#include "graph/pinning.hpp"
#include "ilp/branch_and_bound.hpp"
#include "partition/closure.hpp"
#include "partition/formulation.hpp"
#include "partition/partitioner.hpp"
#include "partition/preprocess.hpp"
#include "profile/platform.hpp"
#include "profile/profiler.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace wishbone {
namespace {

using graph::Requirement;
using graph::Side;
using partition::PartitionProblem;
using partition::ProblemEdge;
using partition::ProblemVertex;

bool close_rel(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

/// src (node) -> a -> b -> sink (server), with a side branch a -> c ->
/// sink. a and c reduce data; b expands it.
PartitionProblem chain_problem() {
  PartitionProblem p;
  auto add = [&p](const char* name, Requirement req, double cpu) {
    ProblemVertex v;
    v.name = name;
    v.req = req;
    v.cpu = cpu;
    p.vertices.push_back(v);
  };
  add("src", Requirement::kNode, 0.0);
  add("a", Requirement::kMovable, 0.2);
  add("b", Requirement::kMovable, 0.3);
  add("c", Requirement::kMovable, 0.1);
  add("sink", Requirement::kServer, 0.0);
  p.edges = {{0, 1, 100.0}, {1, 2, 20.0}, {2, 4, 40.0},
             {1, 3, 30.0}, {3, 4, 5.0}};
  p.cpu_budget = 1.0;
  p.net_budget = 1e9;
  p.alpha = 10.0;
  p.beta = 1.0;
  return p;
}

TEST(Closure, ChainPicksTheCheapestClosedNodeSide) {
  // w = alpha*cpu + beta*(out - in): src = 100, a = 2 + 50 - 100 = -48,
  // b = 3 + 40 - 20 = 23, c = 1 + 5 - 30 = -24, sink = -45. The
  // closure takes src, a and c: 28, against 51 with b as well.
  const PartitionProblem p = chain_problem();
  const auto c = partition::min_weight_closure(p);
  ASSERT_TRUE(c.has_value());
  const std::vector<Side> want = {Side::kNode, Side::kNode, Side::kServer,
                                  Side::kNode, Side::kServer};
  EXPECT_EQ(c->sides, want);
  EXPECT_NEAR(c->objective, 28.0, 1e-12);
  // objective = sum of negative weights (-117) + flow value.
  EXPECT_NEAR(c->flow_value, 145.0, 1e-12);

  const partition::PartitionResult r = partition::solve_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.sides, want);
  EXPECT_EQ(r.solver.status, ilp::SolveStatus::kOptimal);
  EXPECT_EQ(r.solver.nodes_explored, 0u);
  EXPECT_EQ(r.solver.lp_iterations, 0u);
  EXPECT_EQ(r.solver.objective, r.solver.best_bound);
  EXPECT_TRUE(r.solver.final_basis.empty());
  EXPECT_GE(r.solver.time_to_best_incumbent, 0.0);
  // objective_of charges the cut bandwidth, 20 + 5, plus 10 * 0.3 CPU.
  EXPECT_NEAR(r.objective, 28.0, 1e-9);
  EXPECT_NEAR(r.solver.objective, 28.0, 1e-9);
}

TEST(Closure, CertificateRejectsACorruptedFlow) {
  const PartitionProblem p = wbtest::random_problem(3, 4, 3);
  const auto c = partition::min_weight_closure(p);
  ASSERT_TRUE(c.has_value());
  ASSERT_GT(c->flow_value, 0.0);
  EXPECT_NO_THROW(partition::check_closure_certificate(p, *c));

  // One edge arc carrying more than it should breaks conservation at
  // both of its ends.
  partition::Closure bad = *c;
  bad.edge_flow[0] += 1.0;
  EXPECT_THROW(partition::check_closure_certificate(p, bad),
               util::AssertionError);

  // A source arc over its capacity (-w_v, or nothing when w_v >= 0).
  bad = *c;
  std::size_t v = 1;
  while (p.vertices[v].req != Requirement::kMovable) ++v;
  bad.source_flow[v] += 1e6;
  EXPECT_THROW(partition::check_closure_certificate(p, bad),
               util::AssertionError);

  // A consistent flow with a claimed objective it does not prove.
  bad = *c;
  bad.objective -= 1.0;
  EXPECT_THROW(partition::check_closure_certificate(p, bad),
               util::AssertionError);

  // A side that is not closed under predecessors.
  bad = *c;
  for (const ProblemEdge& e : p.edges) {
    if (bad.sides[e.from] == Side::kNode &&
        p.vertices[e.from].req == Requirement::kMovable) {
      bad.sides[e.from] = Side::kServer;
      bad.sides[e.to] = Side::kNode;
      break;
    }
  }
  EXPECT_THROW(partition::check_closure_certificate(p, bad),
               util::AssertionError);
}

TEST(Closure, ContradictoryPinsDoNotApply) {
  // The sink is node-pinned below a server-pinned middle vertex: no
  // closure respects both pins, so the flow is infinite.
  PartitionProblem p = chain_problem();
  p.vertices[1].req = Requirement::kServer;
  p.vertices[4].req = Requirement::kNode;
  EXPECT_FALSE(partition::min_weight_closure(p).has_value());
  EXPECT_FALSE(wbtest::closure_fits(p, false));
  // solve_partition falls through to branch and bound, which proves
  // the problem infeasible.
  partition::PartitionOptions opts;
  opts.preprocess = false;
  const partition::PartitionResult r = partition::solve_partition(p, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.solver.status, ilp::SolveStatus::kInfeasible);
}

/// Random DAG over vertices in index order, with random pins, weights,
/// alpha/beta and 2–4 budget rows, each slack or tight.
PartitionProblem random_instance(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> size(2, 12);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  PartitionProblem p;
  const std::size_t n = size(rng);
  for (std::size_t v = 0; v < n; ++v) {
    ProblemVertex pv;
    pv.name = "v" + std::to_string(v);
    pv.cpu = u(rng) < 0.2 ? 0.0 : u(rng);
    pv.ram_bytes = 100.0 * u(rng);
    pv.rom_bytes = 1000.0 * u(rng);
    // Node pins upstream and server pins downstream, as sensors and
    // displays sit; a few pins anywhere, which can contradict.
    const double pin = u(rng);
    const bool early = 3 * v < n, late = 3 * v >= 2 * n;
    if ((early && pin < 0.3) || pin < 0.03) {
      pv.req = Requirement::kNode;
    } else if ((late && pin > 0.7) || pin > 0.97) {
      pv.req = Requirement::kServer;
    }
    p.vertices.push_back(pv);
  }
  // Streams shrink downstream on average, so moving work onto the node
  // often pays.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (u(rng) < 0.3) {
        const double bw = u(rng) < 0.1 ? 0.0
                                       : 100.0 * u(rng) *
                                             static_cast<double>(n - a) /
                                             static_cast<double>(n);
        p.edges.push_back({a, b, bw});
      }
    }
  }
  p.alpha = u(rng) < 0.3 ? 0.0 : 20.0 * u(rng);
  p.beta = u(rng) < 0.1 ? 0.0 : 0.5 + 1.5 * u(rng);
  // Budgets: all slack (the closure answers), or some cut below what
  // the budget-free closure uses (a budget binds), or some set to a
  // random share of their total (either). The CPU and network rows
  // always exist, RAM and ROM rows only when finite: 2–4 rows.
  p.cpu_budget = 1e9;
  p.net_budget = 1e9;
  const double mode = u(rng);
  if (mode < 0.3) return p;
  partition::AssignmentEval use;
  const auto closure = partition::min_weight_closure(p);
  if (mode < 0.75 && closure) {
    use = partition::evaluate_assignment(p, closure->sides);
  } else {
    for (const ProblemVertex& v : p.vertices) {
      use.cpu += v.cpu;
      use.ram += v.ram_bytes;
      use.rom += v.rom_bytes;
    }
    for (const ProblemEdge& e : p.edges) use.net += e.bandwidth;
  }
  // Each resource is tightened with probability 1/2, to 50–100% of use.
  auto tighten = [&](double& budget, double used) {
    if (u(rng) < 0.5) budget = used * (0.5 + 0.5 * u(rng));
  };
  tighten(p.cpu_budget, use.cpu);
  tighten(p.net_budget, use.net);
  tighten(p.ram_budget, use.ram);
  tighten(p.rom_budget, use.rom);
  return p;
}

TEST(Closure, RandomDifferentialAgainstDenseSimplexOracle) {
  std::mt19937 rng(20231);
  std::size_t by_closure = 0, fell_through = 0, infeasible = 0;
  std::size_t contradictory = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const PartitionProblem p = random_instance(rng);
    ilp::MipOptions mo;
    mo.lp.engine = ilp::BasisEngineKind::kDense;
    const ilp::MipResult oracle = ilp::BranchAndBound{}.solve(
        partition::build_ilp(p, partition::Formulation::kRestricted), mo);
    ASSERT_TRUE(oracle.status == ilp::SolveStatus::kOptimal ||
                oracle.status == ilp::SolveStatus::kInfeasible)
        << "trial " << trial;
    if (!partition::min_weight_closure(p)) ++contradictory;

    for (bool preprocess : {true, false}) {
      partition::PartitionOptions opts;
      opts.preprocess = preprocess;
      const partition::PartitionResult r = partition::solve_partition(p, opts);
      ASSERT_EQ(r.feasible, oracle.has_incumbent)
          << "trial " << trial << " preprocess " << preprocess;
      if (r.feasible) {
        EXPECT_TRUE(close_rel(r.objective, oracle.objective, 1e-6))
            << "trial " << trial << " preprocess " << preprocess << ": "
            << r.objective << " vs " << oracle.objective;
        EXPECT_EQ(r.solver.status, ilp::SolveStatus::kOptimal);
      }
      if (!preprocess) continue;
      if (!r.feasible) {
        ++infeasible;
      } else if (r.solver.lp_iterations == 0 && r.solver.nodes_explored == 0) {
        ++by_closure;
      } else {
        ++fell_through;
      }
    }
  }
  std::printf("closure %zu, branch and bound %zu, infeasible %zu "
              "(contradictory pins %zu)\n",
              by_closure, fell_through, infeasible, contradictory);
  // All four kinds of instance occur.
  EXPECT_GT(by_closure, 300u);
  EXPECT_GT(fell_through, 50u);
  EXPECT_GT(infeasible, 50u);
  EXPECT_GT(contradictory, 10u);
}

/// The branch-and-bound path solve_partition took before the closure
/// fast path, on the condensed problem: per-operator sides.
std::vector<Side> bnb_cut(const PartitionProblem& p, std::size_t num_ops,
                          double* objective) {
  const PartitionProblem work = partition::preprocess(p);
  ilp::MipOptions mo;
  mo.max_nodes = 400;
  mo.rounding_hook = [&work](const std::vector<double>& x) {
    return partition::threshold_round(work, x);
  };
  const ilp::MipResult m = ilp::BranchAndBound{}.solve(
      partition::build_ilp(work, partition::Formulation::kRestricted), mo);
  EXPECT_EQ(m.status, ilp::SolveStatus::kOptimal);
  const std::vector<Side> sides = partition::decode_solution(work, m.x);
  *objective = partition::objective_of(
      work, partition::evaluate_assignment(work, sides));
  return partition::expand_assignment(work, sides, num_ops);
}

struct ProfiledApp {
  std::string name;
  graph::Graph* g = nullptr;
  profile::ProfileData pd;
  double native_rate = 0.0;
};

TEST(Closure, CompileGridCutsMatchBranchAndBound) {
  // The compile_native request grid: EEG-22, EEG-8 and speech on the
  // six platforms other than TMoteSky, at native x {0.25, 0.5, 0.75, 1}.
  apps::EegApp eeg22 = apps::build_eeg_app();
  apps::EegConfig cfg8;
  cfg8.channels = 8;
  apps::EegApp eeg8 = apps::build_eeg_app(cfg8);
  apps::SpeechApp speech = apps::build_speech_app();
  std::vector<ProfiledApp> apps_;
  auto add = [&apps_](const char* name, graph::Graph& g, const auto& traces,
                      std::size_t events, double rate) {
    profile::Profiler prof(g);
    apps_.push_back({name, &g, prof.run(traces, events), rate});
    g.reset_state();
  };
  add("eeg22", eeg22.g, apps::eeg_traces(eeg22, 8), 8,
      eeg22.full_rate_events_per_sec());
  add("eeg8", eeg8.g, apps::eeg_traces(eeg8, 8), 8,
      eeg8.full_rate_events_per_sec());
  add("speech", speech.g, apps::speech_traces(speech, 200), 200,
      apps::SpeechApp::kFullRateEventsPerSec);

  partition::PartitionOptions opts;
  opts.mip.max_nodes = 400;
  std::size_t fits = 0, requests = 0;
  for (const ProfiledApp& a : apps_) {
    const graph::PinAnalysis pins =
        graph::analyze_pins(*a.g, graph::Mode::kPermissive);
    for (const char* plat_name :
         {"NokiaN80", "iPhone", "Gumstix", "MerakiMini", "VoxNet", "Scheme"}) {
      const profile::PlatformModel plat = profile::platform_by_name(plat_name);
      for (double m : {0.25, 0.5, 0.75, 1.0}) {
        ++requests;
        const PartitionProblem p =
            partition::make_problem(*a.g, pins, a.pd, plat, m * a.native_rate);
        if (!wbtest::closure_fits(p)) continue;
        ++fits;
        const std::string at =
            a.name + " on " + plat_name + " x" + std::to_string(m);
        const partition::PartitionResult r = partition::solve_partition(p, opts);
        ASSERT_TRUE(r.feasible) << at;
        EXPECT_EQ(r.solver.lp_iterations, 0u) << at;
        double bnb_objective = 0.0;
        const std::vector<Side> want =
            bnb_cut(p, a.g->num_operators(), &bnb_objective);
        EXPECT_EQ(partition::expand_assignment(p, r.sides, a.g->num_operators()),
                  want)
            << at;
        EXPECT_TRUE(close_rel(r.objective, bnb_objective, 1e-9))
            << at << ": " << r.objective << " vs " << bnb_objective;
      }
    }
  }
  EXPECT_EQ(requests, 72u);
  // Speech on NokiaN80 (every rate) and on MerakiMini at native rate
  // breaks the CPU budget; the other 67 requests fit.
  EXPECT_EQ(fits, 67u);
}

TEST(Closure, StreamExecCutsStayTheBranchAndBoundCuts) {
  // Two of the cuts the e2e stream workload deploys, both now
  // closure-answered: EEG-22 on Gumstix and speech on iPhone at native
  // rate. (Its third, speech on TMoteSky, is a rate search whose every
  // probe breaks the CPU budget, so branch and bound still answers it.)
  core::CompileOptions co;
  co.partition.mip.max_nodes = 400;

  apps::EegApp eeg = apps::build_eeg_app();
  apps::SpeechApp speech = apps::build_speech_app();
  struct Case {
    graph::Graph* g;
    std::map<graph::OperatorId, std::vector<graph::Frame>> traces;
    std::size_t events;
    double rate;
    const char* platform;
  };
  std::vector<Case> cases;
  cases.push_back({&eeg.g, apps::eeg_traces(eeg, 8), 8,
                   eeg.full_rate_events_per_sec(), "Gumstix"});
  cases.push_back({&speech.g, apps::speech_traces(speech, 200), 200,
                   apps::SpeechApp::kFullRateEventsPerSec, "iPhone"});
  for (const Case& c : cases) {
    const profile::PlatformModel plat = profile::platform_by_name(c.platform);
    core::Wishbone wb(*c.g, plat, co);
    const core::CompileReport rep = wb.compile(c.traces, c.events, c.rate);
    ASSERT_TRUE(rep.feasible_at_requested_rate) << c.platform;
    EXPECT_EQ(rep.partition.solver.lp_iterations, 0u) << c.platform;

    const PartitionProblem p = partition::make_problem(
        *c.g, graph::analyze_pins(*c.g, co.mode), rep.profile, plat, c.rate);
    double objective = 0.0;
    EXPECT_EQ(rep.partition.sides, bnb_cut(p, c.g->num_operators(), &objective))
        << c.platform;
    EXPECT_TRUE(close_rel(rep.partition.objective, objective, 1e-9))
        << c.platform;
  }
}

}  // namespace
}  // namespace wishbone
