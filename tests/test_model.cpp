#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "model/potential.hpp"
#include "model/regular.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::model {
namespace {

TEST(RegularParams, Validation) {
  EXPECT_NO_THROW(RegularParams({8, 4, 1.0}).validate());
  EXPECT_NO_THROW(RegularParams({1, 2, 0.0}).validate());
  EXPECT_THROW(RegularParams({0, 4, 1.0}).validate(), util::CheckError);
  EXPECT_THROW(RegularParams({8, 1, 1.0}).validate(), util::CheckError);
  EXPECT_THROW(RegularParams({8, 4, 1.5}).validate(), util::CheckError);
  EXPECT_THROW(RegularParams({8, 4, -0.1}).validate(), util::CheckError);
}

TEST(RegularParams, Exponent) {
  EXPECT_NEAR(RegularParams({8, 4, 1.0}).exponent(), 1.5, 1e-12);
  EXPECT_NEAR(RegularParams({4, 2, 1.0}).exponent(), 2.0, 1e-12);
  EXPECT_NEAR(RegularParams({2, 2, 1.0}).exponent(), 1.0, 1e-12);
}

TEST(RegularParams, ScanSize) {
  EXPECT_EQ(RegularParams({8, 4, 1.0}).scan_size(256), 256u);
  EXPECT_EQ(RegularParams({8, 4, 0.5}).scan_size(256), 16u);
  EXPECT_EQ(RegularParams({8, 4, 0.0}).scan_size(256), 0u);
}

TEST(RegularParams, Leaves) {
  const RegularParams p{8, 4, 1.0};
  EXPECT_EQ(p.leaves(1), 1u);
  EXPECT_EQ(p.leaves(4), 8u);
  EXPECT_EQ(p.leaves(256), 4096u);
  EXPECT_THROW(p.leaves(10), util::CheckError);
}

TEST(RegularParams, Taxonomy) {
  EXPECT_TRUE(RegularParams({8, 4, 1.0}).in_gap_regime());
  EXPECT_FALSE(RegularParams({8, 4, 0.5}).in_gap_regime());
  EXPECT_FALSE(RegularParams({2, 2, 1.0}).in_gap_regime());
  EXPECT_FALSE(RegularParams({2, 4, 1.0}).in_gap_regime());
  EXPECT_TRUE(RegularParams({8, 4, 0.5}).worst_case_adaptive());
  EXPECT_TRUE(RegularParams({2, 4, 1.0}).worst_case_adaptive());
  EXPECT_FALSE(RegularParams({8, 4, 1.0}).worst_case_adaptive());
}

TEST(RegularParams, CanonicalSets) {
  EXPECT_EQ(mm_scan_params().a, 8u);
  EXPECT_EQ(mm_scan_params().c, 1.0);
  EXPECT_EQ(mm_inplace_params().c, 0.0);
  EXPECT_EQ(strassen_params().a, 7u);
  EXPECT_TRUE(mm_scan_params().in_gap_regime());
  EXPECT_TRUE(strassen_params().in_gap_regime());
  EXPECT_FALSE(mm_inplace_params().in_gap_regime());
}

TEST(Potential, RhoValues) {
  const RegularParams p{8, 4, 1.0};
  EXPECT_DOUBLE_EQ(rho(p, 1), 1.0);
  EXPECT_DOUBLE_EQ(rho(p, 4), 8.0);
  EXPECT_DOUBLE_EQ(rho(p, 16), 64.0);
}

TEST(Potential, BoundedRhoCapsAtN) {
  const RegularParams p{8, 4, 1.0};
  EXPECT_DOUBLE_EQ(bounded_rho(p, 16, 4), 8.0);
  EXPECT_DOUBLE_EQ(bounded_rho(p, 16, 16), 64.0);
  EXPECT_DOUBLE_EQ(bounded_rho(p, 16, 1024), 64.0);
}

TEST(Potential, AccumulatorRatio) {
  const RegularParams p{8, 4, 1.0};
  AdaptivityAccumulator acc(p, 16);
  acc.add_box(16);  // bounded potential 64 = rho(16): ratio 1 after this
  EXPECT_DOUBLE_EQ(acc.ratio(), 1.0);
  acc.add_box(1024);  // capped at 64 again
  EXPECT_DOUBLE_EQ(acc.ratio(), 2.0);
  acc.add_box(4);
  EXPECT_DOUBLE_EQ(acc.ratio(), 2.125);
  EXPECT_EQ(acc.boxes(), 3u);
  EXPECT_DOUBLE_EQ(acc.sum_bounded_potential(), 136.0);
}

// Every memoized entry is bit-identical to the direct computation: all
// s in [1, 2·kDenseBound] and s >= n, looked up twice (fill, then hit),
// for c = 1, c < 1 and c = 0, with n below and above the dense bound.
TEST(Potential, BoundedPotentialsEqualDirectComputation) {
  constexpr std::uint64_t kBound = BoundedPotentials::kDenseBound;
  const std::vector<RegularParams> shapes = {
      {8, 4, 1.0}, {7, 4, 0.5}, {4, 2, 1.0}, {2, 4, 1.0}, {8, 4, 0.0}};
  for (const RegularParams& p : shapes) {
    for (const unsigned k : {3u, 8u}) {
      const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 2 * k : k);
      BoundedPotentials table(p, n);
      std::vector<std::uint64_t> sizes;
      for (std::uint64_t s = 1; s <= 2 * kBound; ++s) sizes.push_back(s);
      for (const std::uint64_t s :
           {n - 1, n, n + 1, 2 * n, 4 * kBound + 3, UINT64_C(1) << 40}) {
        sizes.push_back(s);
      }
      // Ascending first, so the dense table grows step by step; then
      // descending, so every lookup hits a filled entry.
      for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1) std::reverse(sizes.begin(), sizes.end());
        for (const std::uint64_t s : sizes) {
          const BoundedPotentials::Entry e = table.at(s);
          ASSERT_EQ(e.rho, bounded_rho(p, n, s))
              << p.name() << " n=" << n << " s=" << s;
          ASSERT_EQ(e.rho_units, bounded_rho_units(p, n, s))
              << p.name() << " n=" << n << " s=" << s;
        }
      }
      EXPECT_GT(n, k == 8 ? kBound : 0) << p.name();
    }
  }
}

// A single copy is the literal addition, for any addends.
TEST(Potential, BulkAddOfOneIsPlainAddition) {
  for (const double sum : {0.0, 0.1, 3.0, 1e300, 9007199254740993.0}) {
    for (const double x : {0.0, 0.3, 2.5, 7.0, 1e-300}) {
      EXPECT_EQ(bulk_add(sum, x, 1), sum + x);
    }
  }
}

// The reference repeated_add and bulk_add must reproduce: the literal loop.
double literal_add(double sum, double x, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) sum += x;
  return sum;
}

// Exact comparison of the bits (so +0/-0 and NaN payloads count too).
void expect_same_sum(double sum, double x, std::uint64_t count) {
  const double want = literal_add(sum, x, count);
  const double got = repeated_add(sum, x, count);
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << std::hexfloat << "sum=" << sum << " x=" << x << " count=" << count
      << " got=" << got << " want=" << want;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(bulk_add(sum, x, count)),
            std::bit_cast<std::uint64_t>(want))
      << std::hexfloat << "bulk_add sum=" << sum << " x=" << x
      << " count=" << count;
}

// A count spread log-uniformly over [1, 2^max_bits).
std::uint64_t random_count(util::Rng& rng, unsigned max_bits) {
  const unsigned bits = static_cast<unsigned>(rng.below(max_bits)) + 1;
  return 1 + rng.below(UINT64_C(1) << bits);
}

// A double with a random 53-bit significand and the given exponent.
double random_double(util::Rng& rng, int exponent) {
  return std::ldexp(1.0 + rng.uniform01(), exponent);
}

// Binade stepping against the literal loop over seeded random (sum, x,
// count): generic magnitudes, exact half-ulp ties on either parity of
// the starting sum, addends far larger than the sum, long runs that
// cross many binades, absorption, subnormals and the box potentials
// the engine really adds.
TEST(RepeatedAdd, BitIdenticalToTheLiteralLoop) {
  util::Rng rng(20240611);
  for (int i = 0; i < 1500; ++i) {  // generic magnitudes
    const int e = static_cast<int>(rng.below(120)) - 60;
    const double sum = rng.bernoulli(0.1) ? 0.0 : random_double(rng, e);
    const double x =
        random_double(rng, e - static_cast<int>(rng.below(70)) + 10);
    expect_same_sum(sum, x, random_count(rng, 16));
  }
  for (int i = 0; i < 1500; ++i) {  // exact half-ulp ties
    const int e = static_cast<int>(rng.below(80)) - 40;
    const double u = std::ldexp(1.0, e - 52);
    // k in [2^52, 2^53): both parities, and sums near the binade's top.
    const std::uint64_t k =
        rng.bernoulli(0.3) ? (UINT64_C(1) << 53) - 1 - rng.below(64)
                           : (UINT64_C(1) << 52) + rng.below(UINT64_C(1) << 52);
    const double sum = static_cast<double>(k) * u;
    const double q = static_cast<double>(rng.below(9));
    const double x = (q + 0.5) * u;  // exactly representable
    expect_same_sum(sum, x, random_count(rng, 14));
    // The next binade down too: there x is a whole number of ulps.
    expect_same_sum(sum / 2.0, x, random_count(rng, 14));
  }
  for (int i = 0; i < 300; ++i) {  // x > sum, many crossings
    const double sum = rng.bernoulli(0.5) ? 0.0 : random_double(rng, -3);
    const double x = random_double(rng, static_cast<int>(rng.below(20)));
    expect_same_sum(sum, x, random_count(rng, 20));
  }
  for (int i = 0; i < 300; ++i) {  // absorption: x at most a half ulp
    const double sum = random_double(rng, 60);
    const double u = std::ldexp(1.0, 60 - 52);
    const double x = rng.bernoulli(0.5) ? u / 2.0 : u * rng.uniform01() / 2;
    expect_same_sum(sum, x, random_count(rng, 16));
  }
  for (int i = 0; i < 200; ++i) {  // subnormals into the normal range
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double sum = tiny * static_cast<double>(rng.below(1 << 20));
    const double x =
        rng.bernoulli(0.5)
            ? tiny * static_cast<double>(1 + rng.below(UINT64_C(1) << 52))
            : random_double(rng, -1022 + static_cast<int>(rng.below(4)));
    expect_same_sum(sum, x, random_count(rng, 12));
  }
  // The engine's case: non-integer potentials s^{log_b a} from zero.
  for (const RegularParams& p :
       {RegularParams{8, 4, 1.0}, RegularParams{7, 4, 1.0},
        RegularParams{3, 2, 1.0}}) {
    for (const std::uint64_t s : {3u, 17u, 100u, 1000u}) {
      const double x = rho(p, s);
      expect_same_sum(0.0, x, UINT64_C(1) << 20);
      expect_same_sum(x / 3.0, x, 12345);
    }
  }
  // Outside [0, inf): the literal loop itself.
  expect_same_sum(-1.5, 0.25, 100);
  expect_same_sum(1.5, -0.25, 100);
  expect_same_sum(-0.0, 0.0, 3);
  expect_same_sum(std::numeric_limits<double>::max(), 1e292, 1000);
}

}  // namespace
}  // namespace cadapt::model
