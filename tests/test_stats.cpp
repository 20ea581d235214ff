// src/stats: the streaming/statistics kernel the sweep subsystem is
// built on. The headline tests are the ones docs/SWEEPS.md leans on:
// Welford keeps precision where the naive accumulator dies, the P²
// sketch tracks exact quantiles within a bound, bootstrap CIs actually
// cover the mean at their nominal rate, and the power-law fitter
// recovers a planted exponent.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "stats/bootstrap.hpp"
#include "stats/fit.hpp"
#include "stats/quantiles.hpp"
#include "stats/streaming.hpp"
#include "util/random.hpp"

namespace {

using namespace cadapt;

// Reference implementation: exact two-pass mean/variance.
struct TwoPass {
  double mean = 0.0;
  double variance = 0.0;  // n-1 denominator
};

TwoPass two_pass(const std::vector<double>& xs) {
  TwoPass out;
  for (const double x : xs) out.mean += x;
  out.mean /= static_cast<double>(xs.size());
  for (const double x : xs) {
    out.variance += (x - out.mean) * (x - out.mean);
  }
  out.variance /= static_cast<double>(xs.size() - 1);
  return out;
}

TEST(Welford, MatchesTwoPassOnBenignData) {
  util::Rng rng(1);
  std::vector<double> xs;
  stats::Welford w;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10.0;
    xs.push_back(x);
    w.add(x);
  }
  const TwoPass ref = two_pass(xs);
  EXPECT_NEAR(w.mean(), ref.mean, 1e-12);
  EXPECT_NEAR(w.variance(), ref.variance, 1e-9);
}

// The adversarial-magnitude case: tiny variance riding on a huge offset.
// The naive sum/sum-of-squares accumulator catastrophically cancels here
// (mean² ~ 1e18 dwarfs a variance of ~0.08 in double precision); Welford
// must agree with the exact two-pass answer to high relative accuracy.
TEST(Welford, SurvivesAdversarialMagnitudes) {
  const double offset = 1e9;
  util::Rng rng(2);
  std::vector<double> xs;
  stats::Welford w;
  double naive_sum = 0.0, naive_sumsq = 0.0;
  for (int i = 0; i < 4096; ++i) {
    const double x = offset + rng.uniform01();
    xs.push_back(x);
    w.add(x);
    naive_sum += x;
    naive_sumsq += x * x;
  }
  const TwoPass ref = two_pass(xs);
  EXPECT_NEAR(w.mean(), ref.mean, std::abs(ref.mean) * 1e-12);
  EXPECT_NEAR(w.variance(), ref.variance, ref.variance * 1e-6);

  // Document WHY Welford exists: the naive form really is broken here.
  const double n = 4096.0;
  const double naive_var =
      (naive_sumsq - naive_sum * naive_sum / n) / (n - 1.0);
  EXPECT_GT(std::abs(naive_var - ref.variance), ref.variance * 0.01);
}

TEST(Welford, MergeEqualsSequential) {
  util::Rng rng(3);
  stats::Welford bulk, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = 1e6 + rng.uniform01() * 4.0;
    bulk.add(x);
    (i < 200 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), bulk.count());
  EXPECT_NEAR(left.mean(), bulk.mean(), std::abs(bulk.mean()) * 1e-12);
  EXPECT_NEAR(left.variance(), bulk.variance(), bulk.variance() * 1e-9);
  EXPECT_EQ(left.min(), bulk.min());
  EXPECT_EQ(left.max(), bulk.max());
}

TEST(Welford, MergeWithEmptySides) {
  stats::Welford a, b;
  a.add(1.0);
  a.add(3.0);
  stats::Welford empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(ExactQuantile, InterpolatesOrderStatistics) {
  // 1..5: median is 3; q=0 and q=1 are the extremes; q=0.25 interpolates.
  EXPECT_DOUBLE_EQ(stats::exact_quantile({5, 1, 3, 2, 4}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(stats::exact_quantile({5, 1, 3, 2, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::exact_quantile({5, 1, 3, 2, 4}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(stats::exact_quantile({5, 1, 3, 2, 4}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(stats::exact_quantile({7.0}, 0.9), 7.0);
}

// Sort-once and selection quantiles are exact_quantile, value for value,
// on random inputs with repeats, for every q the sweep and bootstrap use.
TEST(ExactQuantile, SortedAndSelectAgreeWithExact) {
  util::Rng rng(99);
  for (int rep = 0; rep < 300; ++rep) {
    std::vector<double> xs(1 + rng.below(rep < 50 ? 6 : 3000));
    for (double& x : xs) {
      x = rng.bernoulli(0.2) ? 1.5 : rng.uniform01() * 100.0;
    }
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.025, 0.05, 0.5, 0.9, 0.95, 0.975, 1.0,
                           rng.uniform01()}) {
      const double want = stats::exact_quantile(xs, q);
      EXPECT_EQ(stats::sorted_quantile(sorted, q), want) << rep << " " << q;
      std::vector<double> reordered = xs;
      EXPECT_EQ(stats::select_quantile(reordered, q), want)
          << rep << " " << q;
    }
  }
}

TEST(P2Quantile, ExactBelowFiveObservations) {
  stats::P2Quantile sketch(0.5);
  sketch.add(10.0);
  EXPECT_DOUBLE_EQ(sketch.value(), 10.0);
  sketch.add(2.0);
  sketch.add(6.0);
  EXPECT_DOUBLE_EQ(sketch.value(), stats::exact_quantile({10, 2, 6}, 0.5));
}

// Empirical error bound on streams the sweep actually produces: the P²
// estimate of q must land within a few percent (of the sample range) of
// the exact order statistic for uniform and for skewed data.
TEST(P2Quantile, TracksExactQuantileWithinBound) {
  for (const double q : {0.5, 0.9, 0.95}) {
    util::Rng rng(42);
    stats::P2Quantile uniform_sketch(q);
    stats::P2Quantile skewed_sketch(q);
    std::vector<double> uniform, skewed;
    for (int i = 0; i < 20000; ++i) {
      const double u = rng.uniform01();
      uniform.push_back(u);
      uniform_sketch.add(u);
      const double s = u * u * u;  // mass piled toward 0, long right tail
      skewed.push_back(s);
      skewed_sketch.add(s);
    }
    EXPECT_NEAR(uniform_sketch.value(), stats::exact_quantile(uniform, q),
                0.02)
        << "uniform q=" << q;
    EXPECT_NEAR(skewed_sketch.value(), stats::exact_quantile(skewed, q),
                0.02)
        << "skewed q=" << q;
  }
}

TEST(Bootstrap, DeterministicInSeed) {
  const std::vector<double> xs = {1.0, 2.0, 3.5, 2.5, 1.5, 4.0};
  const stats::BootstrapCi a = stats::bootstrap_mean_ci(xs, {}, 7);
  const stats::BootstrapCi b = stats::bootstrap_mean_ci(xs, {}, 7);
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  // The seed matters: across a handful of seeds the endpoints cannot all
  // coincide with seed 7's (any single pair may, by quantile collision).
  bool any_differs = false;
  for (std::uint64_t seed = 8; seed < 16 && !any_differs; ++seed) {
    const stats::BootstrapCi c = stats::bootstrap_mean_ci(xs, {}, seed);
    any_differs = c.lo != a.lo || c.hi != a.hi;
  }
  EXPECT_TRUE(any_differs);
}

// The resampling loop as it stood before the batched kernel, verbatim:
// one Rng::below draw per index, each resample summed as it is drawn,
// quantiles by sorting copies.
stats::BootstrapCi reference_bootstrap_mean_ci(
    const std::vector<double>& samples, const stats::BootstrapOptions& options,
    std::uint64_t seed) {
  double sum = 0.0;
  for (const double x : samples) sum += x;
  const double mean = sum / static_cast<double>(samples.size());

  stats::BootstrapCi ci;
  ci.point = mean;
  if (samples.size() == 1) {
    ci.lo = ci.hi = mean;
    return ci;
  }

  util::Rng rng(seed);
  std::vector<double> means;
  means.reserve(options.resamples);
  const std::uint64_t n = samples.size();
  for (std::uint64_t r = 0; r < options.resamples; ++r) {
    double resum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) resum += samples[rng.below(n)];
    means.push_back(resum / static_cast<double>(n));
  }
  const double alpha = 1.0 - options.confidence;
  ci.lo = stats::exact_quantile(means, alpha / 2.0);
  ci.hi = stats::exact_quantile(std::move(means), 1.0 - alpha / 2.0);
  return ci;
}

// The batched kernel (hoisted rejection threshold, multiply-based
// remainder, four resamples summed side by side, selection quantiles)
// against the verbatim loop over seeded cases: sample counts 2..5000
// (powers of two and their neighbours included), resample counts
// 1..2000 (so partial lane groups occur), random confidence, samples
// with repeats and spread magnitudes. Every endpoint must match exactly.
TEST(Bootstrap, BitIdenticalToOneDrawAtATimeLoop) {
  util::Rng rng(20240612);
  auto check = [](const std::vector<double>& xs,
                  const stats::BootstrapOptions& options, std::uint64_t seed) {
    const stats::BootstrapCi want =
        reference_bootstrap_mean_ci(xs, options, seed);
    const stats::BootstrapCi got = stats::bootstrap_mean_ci(xs, options, seed);
    ASSERT_EQ(got.point, want.point) << xs.size() << " seed " << seed;
    ASSERT_EQ(got.lo, want.lo) << xs.size() << " seed " << seed;
    ASSERT_EQ(got.hi, want.hi) << xs.size() << " seed " << seed;
  };
  auto samples = [&rng](std::uint64_t n) {
    std::vector<double> xs(n);
    const double scale = std::ldexp(1.0, static_cast<int>(rng.below(40)) - 20);
    for (double& x : xs) {
      x = rng.bernoulli(0.1) ? scale : scale * (1.0 + 30.0 * rng.uniform01());
    }
    return xs;
  };
  // Every small cell size at the sweep's defaults.
  for (std::uint64_t n = 2; n <= 64; ++n) {
    check(samples(n), {}, rng());
  }
  for (int rep = 0; rep < 400; ++rep) {
    std::uint64_t n;
    if (rep % 8 == 0) {  // a power of two or a neighbour
      n = (UINT64_C(1) << (1 + rng.below(12))) + rng.below(3) - 1;
    } else {  // log-uniform over 2..5000
      n = 2 + static_cast<std::uint64_t>(
                  std::exp(rng.uniform01() * std::log(4999.0)));
    }
    n = std::clamp<std::uint64_t>(n, 2, 5000);
    stats::BootstrapOptions options;
    options.resamples = 1 + static_cast<std::uint64_t>(
                                std::exp(rng.uniform01() * std::log(2000.0)));
    options.confidence = 0.01 + 0.98 * rng.uniform01();
    check(samples(n), options, rng());
  }
}

TEST(Bootstrap, SingleSampleCollapsesToPoint) {
  const std::vector<double> one = {3.25};
  const stats::BootstrapCi ci = stats::bootstrap_mean_ci(one, {}, 1);
  EXPECT_DOUBLE_EQ(ci.point, 3.25);
  EXPECT_DOUBLE_EQ(ci.lo, 3.25);
  EXPECT_DOUBLE_EQ(ci.hi, 3.25);
}

TEST(Bootstrap, IntervalPredicates) {
  const stats::BootstrapCi low{1.0, 0.5, 1.5};
  const stats::BootstrapCi high{3.0, 2.0, 4.0};
  const stats::BootstrapCi touching{2.0, 1.5, 2.5};
  EXPECT_TRUE(high.above(low));
  EXPECT_FALSE(low.above(high));
  EXPECT_FALSE(touching.above(low));
  EXPECT_TRUE(touching.overlaps(low));
  EXPECT_TRUE(touching.overlaps(high));
  EXPECT_FALSE(low.overlaps(high));
}

// Coverage: the 95% interval must contain the true mean at roughly its
// nominal rate. 300 repetitions of n=25 exponential-ish samples (skewed,
// like adaptivity ratios); the observed coverage must land in a band
// wide enough to be flake-free yet tight enough to catch a broken
// resampler (a buggy one collapses to ~0.6 or hits 1.0).
TEST(Bootstrap, CoversTrueMeanAtNominalRate) {
  stats::BootstrapOptions options;
  options.resamples = 500;
  util::Rng rng(1234);
  const double true_mean = 1.0;  // Exp(1) via inverse CDF
  int covered = 0;
  const int reps = 300;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> xs;
    for (int i = 0; i < 25; ++i) {
      xs.push_back(-std::log(1.0 - rng.uniform01()));
    }
    const stats::BootstrapCi ci =
        stats::bootstrap_mean_ci(xs, options,
                                 1000u + static_cast<std::uint64_t>(rep));
    if (ci.lo <= true_mean && true_mean <= ci.hi) ++covered;
  }
  const double coverage = static_cast<double>(covered) / reps;
  EXPECT_GE(coverage, 0.88);
  EXPECT_LE(coverage, 0.995);
}

TEST(Fit, LinearRecoversPlantedLine) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(2.5 * x - 1.0);
  const stats::LinearFit fit = stats::fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Fit, PowerLawRecoversPlantedExponent) {
  const std::vector<std::uint64_t> ns = {4, 16, 64, 256, 1024};
  std::vector<double> ys;
  for (const std::uint64_t n : ns) {
    ys.push_back(3.0 * std::pow(static_cast<double>(n), 1.5));
  }
  const stats::ExponentFit fit = stats::fit_power_law(ns, ys);
  EXPECT_NEAR(fit.exponent, 1.5, 1e-9);
  EXPECT_NEAR(fit.scale, 3.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  ASSERT_EQ(fit.residuals.size(), ns.size());
  for (const double r : fit.residuals) EXPECT_NEAR(r, 0.0, 1e-9);
}

// A log correction is NOT a power law: residuals must expose it as a
// systematic bow (negative at the ends, positive in the middle, or the
// reverse) even when r² looks superficially fine.
TEST(Fit, PowerLawResidualsExposeLogCorrection) {
  const std::vector<std::uint64_t> ns = {4, 16, 64, 256, 1024, 4096};
  std::vector<double> ys;
  for (const std::uint64_t n : ns) {
    const double x = static_cast<double>(n);
    ys.push_back(x * std::log2(x));
  }
  const stats::ExponentFit fit = stats::fit_power_law(ns, ys);
  EXPECT_GT(fit.exponent, 1.0);  // the log leaks into the exponent
  const double first = fit.residuals.front();
  const double mid = fit.residuals[ns.size() / 2];
  EXPECT_LT(first * mid, 0.0);  // opposite signs: curvature, not noise
}

}  // namespace
