#include "profile/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::profile {
namespace {

double total_mass(const BoxDistribution& d) {
  double sum = 0;
  for (const auto& e : d.pmf()) sum += e.prob;
  return sum;
}

TEST(PointMass, Basics) {
  PointMass d(16);
  EXPECT_EQ(d.min_size(), 16u);
  EXPECT_EQ(d.max_size(), 16u);
  EXPECT_DOUBLE_EQ(d.mean(), 16.0);
  EXPECT_DOUBLE_EQ(d.prob_ge(16), 1.0);
  EXPECT_DOUBLE_EQ(d.prob_ge(17), 0.0);
  EXPECT_DOUBLE_EQ(d.mean_min(4), 4.0);
  EXPECT_DOUBLE_EQ(d.mean_min(100), 16.0);
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 16u);
}

TEST(UniformPowers, PmfIsUniform) {
  UniformPowers d(4, 0, 3);  // {1, 4, 16, 64}
  ASSERT_EQ(d.pmf().size(), 4u);
  for (const auto& e : d.pmf()) EXPECT_DOUBLE_EQ(e.prob, 0.25);
  EXPECT_DOUBLE_EQ(d.mean(), (1 + 4 + 16 + 64) / 4.0);
  EXPECT_DOUBLE_EQ(d.prob_ge(5), 0.5);
  EXPECT_NEAR(total_mass(d), 1.0, 1e-12);
}

TEST(GeometricPowers, MatchesWorstCaseCensusShape) {
  // Weight a: Pr[b^k] ∝ a^{-k}; ratio of consecutive masses is 1/a.
  GeometricPowers d(4, 8.0, 0, 3);
  const auto& pmf = d.pmf();
  ASSERT_EQ(pmf.size(), 4u);
  for (std::size_t i = 1; i < pmf.size(); ++i)
    EXPECT_NEAR(pmf[i].prob / pmf[i - 1].prob, 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(total_mass(d), 1.0, 1e-12);
}

TEST(Bimodal, MassSplit) {
  Bimodal d(2, 64, 0.125);
  EXPECT_DOUBLE_EQ(d.prob_ge(64), 0.125);
  EXPECT_DOUBLE_EQ(d.prob_ge(3), 0.125);
  EXPECT_DOUBLE_EQ(d.mean(), 0.875 * 2 + 0.125 * 64);
}

TEST(UniformRange, Moments) {
  UniformRange d(1, 10);
  EXPECT_DOUBLE_EQ(d.mean(), 5.5);
  EXPECT_DOUBLE_EQ(d.prob_ge(6), 0.5);
  EXPECT_DOUBLE_EQ(d.mean_min(3), (1 + 2 + 3 * 8) / 10.0);
}

TEST(UniformRange, HugeRangeThrows) {
  EXPECT_THROW(UniformRange(1, (1u << 23)), util::CheckError);
}

TEST(Empirical, MatchesCounts) {
  Empirical d({4, 4, 4, 1, 16});
  ASSERT_EQ(d.pmf().size(), 3u);
  EXPECT_DOUBLE_EQ(d.prob_ge(4), 0.8);
  EXPECT_DOUBLE_EQ(d.prob_ge(16), 0.2);
  EXPECT_DOUBLE_EQ(d.mean(), (4 * 3 + 1 + 16) / 5.0);
}

TEST(MeanMinPow, HandComputed) {
  // min(4, X)^{1.5} for X in {1, 16} with equal mass: (1 + 8)/2.
  UniformPowers d(4, 0, 2);  // {1, 4, 16} each 1/3
  EXPECT_NEAR(d.mean_min_pow(4, 1.5), (1.0 + 8.0 + 8.0) / 3.0, 1e-12);
  EXPECT_NEAR(d.mean_min_pow(16, 1.5), (1.0 + 8.0 + 64.0) / 3.0, 1e-12);
}

TEST(Sampling, FrequenciesTrackPmf) {
  GeometricPowers d(2, 2.0, 0, 4);
  util::Rng rng(77);
  std::map<BoxSize, std::uint64_t> counts;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) ++counts[d.sample(rng)];
  for (const auto& e : d.pmf()) {
    const double freq = static_cast<double>(counts[e.size]) / kTrials;
    EXPECT_NEAR(freq, e.prob, 0.01) << "size " << e.size;
  }
}

TEST(Sampling, OnlySupportValues) {
  Bimodal d(3, 9, 0.5);
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const BoxSize s = d.sample(rng);
    EXPECT_TRUE(s == 3 || s == 9);
  }
}

// The pre-guide-table sampler: binary search for the first cdf value >= u.
BoxSize lower_bound_sample(const BoxDistribution& d, std::uint64_t bits) {
  const double u = static_cast<double>(bits) * 0x1.0p-53;
  const auto& cdf = d.cdf();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf.begin());
  return d.pmf()[std::min(idx, d.pmf().size() - 1)].size;
}

// The guide-table sampler returns exactly the binary-search answer for
// every 53-bit draw: random draws, draws on and next to every cdf value,
// and draws on and next to the bucket edges of several table sizes. It
// also consumes exactly one uniform01() draw per sample.
TEST(Sampling, GuideTableEqualsLowerBound) {
  std::vector<std::unique_ptr<BoxDistribution>> dists;
  dists.push_back(std::make_unique<PointMass>(16));
  dists.push_back(std::make_unique<UniformPowers>(4, 0, 6));
  dists.push_back(std::make_unique<GeometricPowers>(4, 8.0, 0, 6));
  dists.push_back(std::make_unique<GeometricPowers>(2, 1000.0, 0, 12));
  dists.push_back(std::make_unique<Bimodal>(2, 1024, 0.03));
  dists.push_back(std::make_unique<UniformRange>(1, 64));
  dists.push_back(std::make_unique<UniformRange>(3, 1002));
  dists.push_back(std::make_unique<UniformRange>(1, 1u << 22));
  dists.push_back(
      std::make_unique<Empirical>(std::vector<BoxSize>{1, 1, 1, 4, 4, 16, 7}));
  constexpr std::uint64_t kTop = UINT64_C(1) << 53;
  for (const auto& d : dists) {
    const std::string label = d->name();
    util::Rng rng(2024);
    util::Rng twin(2024);
    for (int i = 0; i < 1000000; ++i) {
      const std::uint64_t bits = rng.bits53();
      ASSERT_EQ(d->sample(twin), lower_bound_sample(*d, bits))
          << label << " draw " << i;
    }
    const auto check = [&](std::uint64_t bits) {
      ASSERT_EQ(d->sample_bits(bits), lower_bound_sample(*d, bits))
          << label << " bits " << bits;
    };
    for (const std::uint64_t bits : {UINT64_C(0), UINT64_C(1), kTop - 1}) {
      check(bits);
    }
    for (const double c : d->cdf()) {
      const double scaled = c * 0x1.0p53;
      for (const double v : {std::floor(scaled), std::ceil(scaled)}) {
        for (const double dv : {-1.0, 0.0, 1.0}) {
          const double e = v + dv;
          if (e >= 0.0 && e < static_cast<double>(kTop)) {
            check(static_cast<std::uint64_t>(e));
          }
        }
      }
    }
    for (unsigned g = 0; g <= 13; ++g) {
      const std::uint64_t step = kTop >> g;
      for (std::uint64_t j = 1; j < (UINT64_C(1) << g); ++j) {
        check(j * step - 1);
        check(j * step);
        check(j * step + 1);
      }
    }
  }
}

TEST(DistributionSource, InfiniteStream) {
  PointMass d(5);
  DistributionSource source(d, util::Rng(1));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(source.next(), 5u);
}

TEST(PmfValidation, RejectsBadInput) {
  EXPECT_THROW(Empirical({}), util::CheckError);
  EXPECT_THROW(PointMass(0), util::CheckError);
  EXPECT_THROW(Bimodal(5, 3, 0.5), util::CheckError);
  EXPECT_THROW(Bimodal(1, 3, 0.0), util::CheckError);
  EXPECT_THROW(UniformPowers(1, 0, 2), util::CheckError);
}

TEST(PmfValidation, DuplicateSizesMerge) {
  Empirical d({7, 7, 7});
  ASSERT_EQ(d.pmf().size(), 1u);
  EXPECT_DOUBLE_EQ(d.pmf().front().prob, 1.0);
}

}  // namespace
}  // namespace cadapt::profile
