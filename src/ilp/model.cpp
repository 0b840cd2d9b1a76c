#include "ilp/model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wishbone::ilp {

using util::hash_combine;

int LinearProgram::add_variable(std::string name, double lower, double upper,
                                double objective_coeff, bool is_integer) {
  WB_REQUIRE(lower <= upper, "variable '" + name + "': lower > upper");
  names_.push_back(std::move(name));
  lower_.push_back(lower);
  upper_.push_back(upper);
  obj_.push_back(objective_coeff);
  integer_.push_back(is_integer);
  return static_cast<int>(lower_.size()) - 1;
}

int LinearProgram::add_binary(std::string name, double objective_coeff) {
  return add_variable(std::move(name), 0.0, 1.0, objective_coeff, true);
}

void LinearProgram::add_constraint(Constraint c) {
  // Row structure for structure_hash(): the distinct variables with a
  // nonzero coefficient, in index order.
  thread_local std::vector<int> idx;
  idx.clear();
  for (const auto& [v, coeff] : c.terms) {
    check_var(v);
    if (coeff != 0.0) idx.push_back(v);
  }
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  std::uint64_t h =
      hash_combine(rows_digest_, static_cast<std::uint64_t>(c.rel));
  h = hash_combine(h, idx.size());
  for (int v : idx) h = hash_combine(h, static_cast<std::uint64_t>(v));
  rows_digest_ = h;
  constraints_.push_back(std::move(c));
}

void LinearProgram::set_bounds(int v, double lower, double upper) {
  check_var(v);
  WB_REQUIRE(lower <= upper, "set_bounds: lower > upper");
  lower_[v] = lower;
  upper_[v] = upper;
}

std::uint64_t LinearProgram::structure_hash() const {
  std::uint64_t h = hash_combine(0x57b0e6a1c3d2f4e5ull,
                                 static_cast<std::uint64_t>(num_variables()));
  h = hash_combine(h, static_cast<std::uint64_t>(constraints_.size()));
  h = hash_combine(h, rows_digest_);
  return h == 0 ? 1 : h;  // 0 is a default Basis's hash
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
  WB_REQUIRE(static_cast<int>(x.size()) == num_variables(),
             "objective_value: dimension mismatch");
  double obj = 0.0;
  for (int v = 0; v < num_variables(); ++v) obj += obj_[v] * x[v];
  return obj;
}

double LinearProgram::max_violation(const std::vector<double>& x) const {
  WB_REQUIRE(static_cast<int>(x.size()) == num_variables(),
             "max_violation: dimension mismatch");
  double worst = 0.0;
  for (int v = 0; v < num_variables(); ++v) {
    worst = std::max(worst, lower_[v] - x[v]);
    worst = std::max(worst, x[v] - upper_[v]);
    if (integer_[v]) {
      worst = std::max(worst, std::fabs(x[v] - std::round(x[v])));
    }
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [v, coeff] : c.terms) lhs += coeff * x[v];
    switch (c.rel) {
      case Relation::kLe: worst = std::max(worst, lhs - c.rhs); break;
      case Relation::kGe: worst = std::max(worst, c.rhs - lhs); break;
      case Relation::kEq: worst = std::max(worst, std::fabs(lhs - c.rhs)); break;
    }
  }
  return worst;
}

std::string LinearProgram::to_text() const {
  std::ostringstream os;
  os << "minimize:";
  for (int v = 0; v < num_variables(); ++v) {
    if (obj_[v] != 0.0) os << " " << (obj_[v] >= 0 ? "+" : "") << obj_[v]
                           << "*" << names_[v];
  }
  os << "\nsubject to:\n";
  for (const Constraint& c : constraints_) {
    os << "  " << (c.name.empty() ? "(anon)" : c.name) << ":";
    for (const auto& [v, coeff] : c.terms) {
      os << " " << (coeff >= 0 ? "+" : "") << coeff << "*" << names_[v];
    }
    switch (c.rel) {
      case Relation::kLe: os << " <= "; break;
      case Relation::kEq: os << " == "; break;
      case Relation::kGe: os << " >= "; break;
    }
    os << c.rhs << "\n";
  }
  os << "bounds:\n";
  for (int v = 0; v < num_variables(); ++v) {
    os << "  " << lower_[v] << " <= " << names_[v] << " <= " << upper_[v];
    if (integer_[v]) os << " (integer)";
    os << "\n";
  }
  return os.str();
}

void LinearProgram::check_var(int v) const {
  WB_REQUIRE(v >= 0 && v < num_variables(), "variable index out of range");
}

}  // namespace wishbone::ilp
