#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace wu = wishbone::util;

TEST(RunningStats, EmptyAccessorsThrow) {
  wu::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW((void)s.mean(), wu::ContractError);
  EXPECT_THROW((void)s.min(), wu::ContractError);
  EXPECT_THROW((void)s.max(), wu::ContractError);
}

TEST(RunningStats, SingleValue) {
  wu::RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.total(), 42.0);
}

TEST(RunningStats, MeanMinMaxVariance) {
  wu::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);  // population variance
}

TEST(RunningStats, NegativeValues) {
  wu::RunningStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Percentile, Extremes) {
  std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(wu::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(wu::percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(wu::percentile(xs, 50.0), 3.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(wu::percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(wu::percentile(xs, 75.0), 7.5);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(wu::percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(wu::percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, ContractViolations) {
  EXPECT_THROW((void)wu::percentile({}, 50.0), wu::ContractError);
  EXPECT_THROW((void)wu::percentile({1.0}, -1.0), wu::ContractError);
  EXPECT_THROW((void)wu::percentile({1.0}, 101.0), wu::ContractError);
}

TEST(EmpiricalCdf, SortedPairs) {
  const auto cdf = wu::empirical_cdf({3.0, 1.0, 2.0, 4.0});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].second, 25.0);
  EXPECT_DOUBLE_EQ(cdf[3].first, 4.0);
  EXPECT_DOUBLE_EQ(cdf[3].second, 100.0);
}

TEST(EmpiricalCdf, EmptyThrows) {
  EXPECT_THROW((void)wu::empirical_cdf({}), wu::ContractError);
}

TEST(Stopwatch, MeasuresElapsed) {
  wu::Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  const double t1 = sw.elapsed_seconds();
  sw.reset();
  EXPECT_LE(sw.elapsed_seconds(), t1 + 1.0);
}

TEST(Assert, MacrosThrowTypedExceptions) {
  EXPECT_THROW(WB_REQUIRE(false, "precondition"), wu::ContractError);
  EXPECT_THROW(WB_ASSERT(1 == 2), wu::AssertionError);
  EXPECT_NO_THROW(WB_ASSERT(true));
  EXPECT_NO_THROW(WB_REQUIRE(true, "ok"));
}

TEST(Assert, MessageCarriesContext) {
  try {
    WB_ASSERT_MSG(false, "the detail");
    FAIL() << "should have thrown";
  } catch (const wu::AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the detail"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Hash, MatchesReferenceVectors) {
  // splitmix64's first output from state 0, and the published FNV-1a
  // test vectors.
  EXPECT_EQ(wu::splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(wu::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(wu::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(wu::fnv1a("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(wu::combine(0, 0), 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(wu::mix_double(0, 1.0), 0xde2779b97f4a7c15ull);
}
