// Answer checks that do not use the solver.
//
// Every cut the library returns is re-evaluated with evaluate_assignment
// against the exact problem the requester asked about: pins, one-way
// cut, every budget, and the recomputed objective. Optimality and
// "infeasible" verdicts are held against baselines that share no code
// with the ILP path: exhaustive search for the speech pipeline (9
// movable operators), and the greedy and all-at-basestation cuts for
// EEG, whose 1412 operators are out of exhaustive reach.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "partition/problem.hpp"

namespace wishbone::e2e {

/// Ops checked and failures by reason. One per client thread; merge()
/// combines them after the threads are joined.
class Tally {
 public:
  /// Counts `n` checked ops; a non-empty `reason` marks them failed.
  void record(const std::string& reason, std::size_t n = 1);
  void merge(const Tally& other);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, std::size_t>& reasons() const {
    return reasons_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::size_t> reasons_;
};

/// Which independent baseline stands in for the optimum.
enum class Reference {
  kExhaustive,  ///< exact: the answer must match it
  kHeuristic,   ///< greedy, else all-at-basestation: must not beat ours
};

struct ReferenceAnswer {
  bool feasible = false;
  double objective = 0.0;
};

[[nodiscard]] ReferenceAnswer reference_answer(
    const partition::PartitionProblem& p, Reference kind);

/// "" when `sides` (one per problem vertex) is a valid answer for `p`:
/// pins respected, no server-to-node edge, every budget met, and
/// `claimed_objective` equal to the recomputed objective. `slack` >= 1
/// widens budgets and the objective match by that factor — for answers
/// solved for a different profile whose every load is within `slack`
/// of this one (a cache cell). Otherwise the reason it fails.
[[nodiscard]] std::string check_cut(const partition::PartitionProblem& p,
                                    const std::vector<graph::Side>& sides,
                                    double claimed_objective,
                                    double slack = 1.0);

/// "" when a feasible answer's objective agrees with the reference:
/// equal to an exhaustive optimum, or no worse than a feasible
/// heuristic cut.
[[nodiscard]] std::string check_objective(double objective,
                                          const ReferenceAnswer& ref,
                                          Reference kind);

/// "" when an "infeasible" verdict stands: the reference found no cut.
[[nodiscard]] std::string check_infeasible(const ReferenceAnswer& ref,
                                           Reference kind);

/// `p` with every load (CPU, RAM, ROM, bandwidth) multiplied by `s`.
[[nodiscard]] partition::PartitionProblem scaled(
    const partition::PartitionProblem& p, double s);

}  // namespace wishbone::e2e
