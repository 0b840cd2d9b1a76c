#include <gtest/gtest.h>

#include "ilp/model.hpp"
#include "util/assert.hpp"

using namespace wishbone::ilp;
using wishbone::util::ContractError;

TEST(Model, AddVariablesAndBinaries) {
  LinearProgram lp;
  const int x = lp.add_variable("x", -1.0, 5.0, 2.0, false);
  const int f = lp.add_binary("f", 1.0);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(f, 1);
  EXPECT_EQ(lp.num_variables(), 2);
  EXPECT_DOUBLE_EQ(lp.lower(f), 0.0);
  EXPECT_DOUBLE_EQ(lp.upper(f), 1.0);
  EXPECT_TRUE(lp.is_integer(f));
  EXPECT_FALSE(lp.is_integer(x));
  EXPECT_EQ(lp.variable_name(0), "x");
}

TEST(Model, InvalidBoundsThrow) {
  LinearProgram lp;
  EXPECT_THROW((void)lp.add_variable("x", 2.0, 1.0, 0.0, false),
               ContractError);
  const int x = lp.add_variable("x", 0.0, 1.0, 0.0, false);
  EXPECT_THROW(lp.set_bounds(x, 3.0, 2.0), ContractError);
  EXPECT_THROW(lp.set_bounds(7, 0.0, 1.0), ContractError);
}

TEST(Model, ConstraintReferencesCheckedVariables) {
  LinearProgram lp;
  (void)lp.add_binary("f", 0.0);
  Constraint c;
  c.terms = {{3, 1.0}};
  EXPECT_THROW(lp.add_constraint(c), ContractError);
}

TEST(Model, StructureHashFollowsRowsAndVariablesNotBounds) {
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 4.0, 1.0, false);
  const std::uint64_t h0 = lp.structure_hash();
  const int y = lp.add_binary("y", -1.0);
  const std::uint64_t h1 = lp.structure_hash();
  EXPECT_NE(h1, h0) << "add_variable must change the hash";
  Constraint c;
  c.terms = {{y, 2.0}, {x, 1.0}, {y, 0.5}};
  c.rel = Relation::kLe;
  c.rhs = 3.0;
  lp.add_constraint(c);
  const std::uint64_t h2 = lp.structure_hash();
  EXPECT_NE(h2, h1) << "add_constraint must change the hash";
  lp.set_bounds(x, 1.0, 2.0);
  EXPECT_EQ(lp.lower(x), 1.0);
  EXPECT_EQ(lp.upper(x), 2.0);
  EXPECT_EQ(lp.structure_hash(), h2) << "bounds are not structure";

  // The same structure built another way: other names, values, bounds
  // and rhs; terms reordered, duplicated, and a zero coefficient.
  LinearProgram other;
  (void)other.add_variable("a", -1.0, 1.0, 0.0, true);
  (void)other.add_variable("b", 0.0, 9.0, 5.0, false);
  Constraint d;
  d.terms = {{0, 7.0}, {1, -1.0}, {0, 3.0}};
  d.rel = Relation::kLe;
  d.rhs = -2.0;
  other.add_constraint(d);
  EXPECT_EQ(other.structure_hash(), h2);

  // A copy carries the value and then evolves on its own; a zero
  // coefficient is not structure.
  LinearProgram copy = lp;
  Constraint e;
  e.terms = {{x, 0.0}, {y, 1.0}};
  e.rel = Relation::kGe;
  copy.add_constraint(e);
  EXPECT_NE(copy.structure_hash(), h2);
  EXPECT_EQ(lp.structure_hash(), h2);
  Constraint e2;
  e2.terms = {{y, 4.0}};
  e2.rel = Relation::kGe;
  lp.add_constraint(e2);
  EXPECT_EQ(lp.structure_hash(), copy.structure_hash());
}

TEST(Model, ObjectiveValue) {
  LinearProgram lp;
  (void)lp.add_variable("x", 0.0, 10.0, 2.0, false);
  (void)lp.add_variable("y", 0.0, 10.0, -1.0, false);
  EXPECT_DOUBLE_EQ(lp.objective_value({3.0, 4.0}), 2.0);
  EXPECT_THROW((void)lp.objective_value({1.0}), ContractError);
}

TEST(Model, MaxViolationChecksEverything) {
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 1.0, 0.0, true);
  Constraint c;
  c.terms = {{x, 1.0}};
  c.rel = Relation::kLe;
  c.rhs = 0.5;
  lp.add_constraint(c);

  EXPECT_DOUBLE_EQ(lp.max_violation({0.0}), 0.0);
  EXPECT_NEAR(lp.max_violation({0.8}), 0.3, 1e-12);   // constraint
  EXPECT_NEAR(lp.max_violation({-0.4}), 0.4, 1e-12);  // lower bound
  EXPECT_NEAR(lp.max_violation({0.3}), 0.3, 1e-12);   // integrality
}

TEST(Model, MaxViolationRelations) {
  LinearProgram lp;
  const int x = lp.add_variable("x", -10.0, 10.0, 0.0, false);
  Constraint ge;
  ge.terms = {{x, 1.0}};
  ge.rel = Relation::kGe;
  ge.rhs = 2.0;
  lp.add_constraint(ge);
  Constraint eq;
  eq.terms = {{x, 2.0}};
  eq.rel = Relation::kEq;
  eq.rhs = 6.0;
  lp.add_constraint(eq);
  EXPECT_DOUBLE_EQ(lp.max_violation({3.0}), 0.0);
  EXPECT_NEAR(lp.max_violation({1.0}), 4.0, 1e-12);  // eq violated by 4
}

TEST(Model, ToTextMentionsEverything) {
  LinearProgram lp;
  const int f = lp.add_binary("f_src", 3.5);
  Constraint c;
  c.name = "cpu_budget";
  c.terms = {{f, 1.0}};
  c.rel = Relation::kLe;
  c.rhs = 1.0;
  lp.add_constraint(c);
  const std::string text = lp.to_text();
  EXPECT_NE(text.find("minimize"), std::string::npos);
  EXPECT_NE(text.find("f_src"), std::string::npos);
  EXPECT_NE(text.find("cpu_budget"), std::string::npos);
  EXPECT_NE(text.find("integer"), std::string::npos);
}

TEST(Model, StructureHashIsPinned) {
  // Warm bases are matched by this value across processes, so its bits
  // must not move with a refactor of the hashing helpers.
  LinearProgram lp;
  const int x = lp.add_variable("x", 0.0, 4.0, 1.0, false);
  const int y = lp.add_binary("y", -1.0);
  const int z = lp.add_binary("z", 2.0);
  Constraint a;
  a.terms = {{x, 1.0}, {y, 2.0}};
  a.rel = Relation::kLe;
  a.rhs = 3.0;
  lp.add_constraint(a);
  Constraint b;
  b.terms = {{z, 1.0}, {y, -1.0}, {x, 0.5}};
  b.rel = Relation::kGe;
  b.rhs = 0.0;
  lp.add_constraint(b);
  Constraint e;
  e.terms = {{y, 1.0}, {z, 1.0}};
  e.rel = Relation::kEq;
  e.rhs = 1.0;
  lp.add_constraint(e);
  EXPECT_EQ(lp.structure_hash(), 1943226280693939160ULL);
}
