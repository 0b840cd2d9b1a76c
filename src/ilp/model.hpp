// Linear / integer program model: the problem container fed to the
// Simplex and branch-and-bound solvers. Plays the role of lp_solve's
// model API in the paper (§4.2.1, footnote 3).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace wishbone::ilp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Relation { kLe, kEq, kGe };

/// One linear constraint: sum(coeff * var) REL rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coeff)
  Relation rel = Relation::kLe;
  double rhs = 0.0;
  std::string name;
};

/// A minimization LP/MIP with bounded variables. (Maximization callers
/// negate their objective.)
class LinearProgram {
 public:
  /// Adds a variable; returns its index.
  int add_variable(std::string name, double lower, double upper,
                   double objective_coeff, bool is_integer);

  /// Convenience: a 0/1 indicator variable (the f_v of §4.2.1).
  int add_binary(std::string name, double objective_coeff);

  void add_constraint(Constraint c);

  /// Tightens (replaces) the bounds of variable `v` without rebuilding
  /// the model.
  void set_bounds(int v, double lower, double upper);

  /// Fingerprint of the model's *structure*: variable count, row count
  /// and, per constraint row in order, the relation and the sorted set
  /// of variable indices carrying a nonzero coefficient. Deliberately
  /// independent of coefficient values, right-hand sides, bounds and
  /// names — a simplex basis extracted from one model is loadable into
  /// any model with the same structure hash (same sparsity pattern,
  /// same row/column meaning), which is exactly the "structurally
  /// identical" contract of Basis. Duplicate mentions of a variable in
  /// a row collapse to one (SimplexState coalesces them the same way);
  /// zero coefficients are skipped (they never enter the working form's
  /// numerics). Never returns 0, so a default-constructed Basis
  /// (structure_hash 0) loads into no model.
  ///
  /// O(1): add_constraint folds each row into a running digest as it
  /// arrives, and only add_variable / add_constraint change the result
  /// (set_bounds does not), so every SimplexState built over the model
  /// reads the same memoized value.
  [[nodiscard]] std::uint64_t structure_hash() const;

  [[nodiscard]] int num_variables() const { return static_cast<int>(lower_.size()); }
  [[nodiscard]] int num_constraints() const { return static_cast<int>(constraints_.size()); }

  [[nodiscard]] double lower(int v) const { return lower_[v]; }
  [[nodiscard]] double upper(int v) const { return upper_[v]; }
  [[nodiscard]] double objective_coeff(int v) const { return obj_[v]; }
  [[nodiscard]] bool is_integer(int v) const { return integer_[v]; }
  [[nodiscard]] const std::string& variable_name(int v) const { return names_[v]; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Max constraint/bound violation of an assignment; 0 means feasible.
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

  /// Renders the model in LP-format-like text (for debugging and the
  /// model-dump tests).
  [[nodiscard]] std::string to_text() const;

 private:
  void check_var(int v) const;

  std::vector<std::string> names_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> obj_;
  std::vector<bool> integer_;
  std::vector<Constraint> constraints_;
  std::uint64_t rows_digest_ = 0;  ///< structure of the rows added so far
};

}  // namespace wishbone::ilp
