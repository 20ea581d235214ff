// Small fixed-input cases of the stats kernel (test_stats.cpp holds the
// statistical ones): exact moments and min/max, the empty/single
// accumulator, merges, exact and low-r² fits, quantile interpolation and
// argument validation.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "stats/fit.hpp"
#include "stats/quantiles.hpp"
#include "stats/streaming.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::stats {
namespace {

using util::CheckError;

TEST(RunningStat, BasicMoments) {
  Welford s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyAndSingle) {
  Welford s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  util::Rng rng(9);
  Welford all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  Welford a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(FitLinear, ExactLine) {
  const std::array<double, 4> xs{1, 2, 3, 4};
  const std::array<double, 4> ys{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLinear, NoisyLineLowR2) {
  const std::array<double, 6> xs{1, 2, 3, 4, 5, 6};
  const std::array<double, 6> ys{5, 1, 6, 2, 7, 1};
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_LT(fit.r2, 0.5);
}

TEST(FitLinear, RejectsDegenerateInput) {
  const std::array<double, 2> xs{1, 1};
  const std::array<double, 2> ys{1, 2};
  EXPECT_THROW(fit_linear(xs, ys), CheckError);
  const std::array<double, 1> one{1};
  EXPECT_THROW(fit_linear(one, one), CheckError);
}

TEST(Quantile, InterpolatesOrderStatistics) {
  const std::vector<double> v{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(exact_quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(exact_quantile({7.0}, 0.3), 7.0);
}

TEST(Quantile, RejectsBadArgs) {
  EXPECT_THROW(exact_quantile({}, 0.5), CheckError);
  EXPECT_THROW(exact_quantile({1.0}, 1.5), CheckError);
}

}  // namespace
}  // namespace cadapt::stats
