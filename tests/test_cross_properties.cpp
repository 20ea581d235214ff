// Cross-module property tests: invariants that tie several subsystems
// together.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/workloads.hpp"
#include "engine/analytic.hpp"
#include "engine/exec.hpp"
#include "engine/montecarlo.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "profile/transforms.hpp"
#include "profile/worst_case.hpp"
#include "stats/fit.hpp"
#include "stats/streaming.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt {
namespace {

TEST(CrossProperties, GeometricPowersEqualsWorstCaseCensus) {
  // The 'shuffled worst case' distribution used throughout (GeometricPowers
  // with weight a) must equal the empirical distribution of the actual
  // materialized profile.
  for (const auto& [a, b, k] :
       {std::tuple<std::uint64_t, std::uint64_t, unsigned>{8, 4, 4},
        {4, 2, 6},
        {3, 2, 5}}) {
    const std::uint64_t n = util::ipow(b, k);
    profile::WorstCaseSource source(a, b, n);
    profile::Empirical empirical(profile::materialize(source));
    profile::GeometricPowers geometric(b, static_cast<double>(a), 0, k);
    const auto& pe = empirical.pmf();
    const auto& pg = geometric.pmf();
    ASSERT_EQ(pe.size(), pg.size()) << a << " " << b;
    for (std::size_t i = 0; i < pe.size(); ++i) {
      EXPECT_EQ(pe[i].size, pg[i].size);
      EXPECT_NEAR(pe[i].prob, pg[i].prob, 1e-12);
    }
  }
}

TEST(CrossProperties, BoxProgressMonotoneInSizeFromProblemStart) {
  // From the start of a fresh problem, a bigger box never makes less
  // progress (both semantics).
  for (const engine::BoxSemantics sem :
       {engine::BoxSemantics::kOptimistic, engine::BoxSemantics::kBudgeted}) {
    std::uint64_t prev = 0;
    for (std::uint64_t s = 1; s <= 2048; s *= 2) {
      engine::RegularExecution exec({8, 4, 1.0}, 1024,
                                    engine::ScanPlacement::kEnd, 0, sem);
      const std::uint64_t progress = exec.consume_box(s).progress;
      EXPECT_GE(progress, prev) << "s=" << s;
      prev = progress;
    }
  }
}

TEST(CrossProperties, CompletedRunRatioAtLeastOneOptimistic) {
  // Under the optimistic semantics each box's progress is at most its
  // n-bounded potential, and total progress is n^{log_b a}; hence the
  // adaptivity ratio of a completed run is >= 1.
  util::Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    profile::UniformRange dist(1, 300);
    profile::DistributionSource source(dist, rng.split());
    const engine::RunResult r = engine::run_regular({8, 4, 1.0}, 256, source);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.ratio, 1.0 - 1e-9) << trial;
    EXPECT_GE(r.boxes, 1u);
  }
}

TEST(CrossProperties, AnalyticFMonotoneInProblemSize) {
  profile::UniformPowers dist(4, 0, 4);
  engine::AnalyticSolver solver({8, 4, 1.0}, dist);
  const auto levels = solver.solve(util::ipow(4, 7));
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_GT(levels[i].f, levels[i - 1].f) << levels[i].n;
}

TEST(CrossProperties, ExpectedScanBoxesMonotoneInLength) {
  profile::Bimodal dist(2, 64, 0.1);
  engine::AnalyticSolver solver({8, 4, 1.0}, dist);
  double prev = 0.0;
  for (std::uint64_t len = 1; len <= 1024; len *= 2) {
    const double k = solver.expected_scan_boxes(len);
    EXPECT_GE(k, prev) << len;
    prev = k;
  }
}

TEST(CrossProperties, AnalyticFDecreasesWithBiggerBoxes) {
  // Stochastically bigger boxes cannot increase the expected number of
  // boxes to finish.
  const std::uint64_t n = util::ipow(4, 5);
  profile::PointMass small(4), medium(64), large(1024);
  engine::AnalyticSolver s1({8, 4, 1.0}, small), s2({8, 4, 1.0}, medium),
      s3({8, 4, 1.0}, large);
  const double f1 = s1.solve(n).back().f;
  const double f2 = s2.solve(n).back().f;
  const double f3 = s3.solve(n).back().f;
  EXPECT_GT(f1, f2);
  EXPECT_GT(f2, f3);
}

// ---- series with no manifest spelling ------------------------------
// A manifest profile token fixes the transform's sampler and the
// algorithm's scan placement. The series below vary one of those, so
// they run on core/workloads + engine::run_monte_carlo directly, seeded
// seed + k exactly like a manifest's ratio cells (EXPERIMENTS.md E5,
// E12, E18 cite them).

/// OLS slope against k = kmin.. of the mean ratio of a Monte-Carlo run
/// per n = b^k, k in [kmin, kmax]; every trial must complete.
template <typename MakeFactory>
double ratio_slope(const model::RegularParams& params, unsigned kmin,
                   unsigned kmax, engine::McOptions mc,
                   MakeFactory make_factory) {
  std::vector<double> ks, means;
  const std::uint64_t seed = mc.seed;
  for (unsigned k = kmin; k <= kmax; ++k) {
    const std::uint64_t n = util::ipow(params.b, k);
    mc.seed = seed + k;
    const engine::McSummary s =
        engine::run_monte_carlo(params, n, make_factory(n), mc);
    EXPECT_EQ(s.incomplete, 0u) << "n=" << n;
    ks.push_back(k);
    means.push_back(s.ratio.mean());
  }
  return stats::fit_linear(ks, means).slope;
}

engine::McOptions mc_options(std::uint64_t trials, std::uint64_t seed) {
  engine::McOptions mc;
  mc.trials = trials;
  mc.seed = seed;
  return mc;
}

TEST(NegativeResults, SizePerturbationKeepsTheGap) {
  // Growth-only X ~ U{1..2}: the gap survives (slope bounded away from 0).
  const model::RegularParams params{8, 4, 1.0};
  const double slope =
      ratio_slope(params, 2, 5, mc_options(12, 7), [&](std::uint64_t n) {
        return core::size_perturb_source(params, n,
                                         profile::uniform_int_perturb(2));
      });
  EXPECT_GT(slope, 0.3);
}

TEST(CrossProperties, PointPerturbIsPureScaling) {
  // E5's X = 4 exactly: the scaled profile 4 · M_{8,4} (the paper's
  // intermediate object) keeps the full gap, slope 1.
  const model::RegularParams params{8, 4, 1.0};
  const double slope =
      ratio_slope(params, 2, 7, mc_options(2, 42), [&](std::uint64_t n) {
        return core::size_perturb_source(params, n,
                                         profile::point_perturb(4.0));
      });
  EXPECT_NEAR(slope, 1.0, 1e-3);
}

TEST(CrossProperties, GrowthOnlyPerturbationPartiallyEscapes) {
  // E5's growth-only contrast (not the paper's shape: X >= 1 never
  // shrinks a box): U{1..4} escapes most of the gap under the optimistic
  // semantics where U{1..2} keeps more than all of it — an alignment
  // resonance, not a paper claim.
  const model::RegularParams params{8, 4, 1.0};
  const auto slope_for = [&](std::uint64_t t) {
    return ratio_slope(params, 2, 5, mc_options(32, 42),
                       [&](std::uint64_t n) {
                         return core::size_perturb_source(
                             params, n, profile::uniform_int_perturb(t));
                       });
  };
  EXPECT_GT(slope_for(2), 1.0);
  EXPECT_LT(slope_for(4), 0.5);
}

TEST(CrossProperties, ScanHidingCurveUsesInterleavedPlacement) {
  // E12: interleaving each problem's scan into a chunks does not defeat
  // the aligned adversary under the optimistic semantics — the execution
  // re-synchronizes with M_{8,4} and keeps the full gap.
  const model::RegularParams params{8, 4, 1.0};
  engine::McOptions mc = mc_options(1, 42);
  mc.placement = engine::ScanPlacement::kInterleaved;
  const double slope = ratio_slope(params, 2, 7, mc, [&](std::uint64_t n) {
    return core::worst_profile_source(params, n);
  });
  EXPECT_NEAR(slope, 1.0, 1e-3);
}

TEST(CrossProperties, InterleavedScansRecoverGapUnderBudgetedSemantics) {
  // E12's budgeted row and E18's deterministic contrast: the same
  // interleaved algorithm under the budgeted semantics recovers most of
  // the gap on the fixed M_{8,4}.
  const model::RegularParams params{8, 4, 1.0};
  engine::McOptions mc = mc_options(1, 42);
  mc.placement = engine::ScanPlacement::kInterleaved;
  mc.semantics = engine::BoxSemantics::kBudgeted;
  const double slope = ratio_slope(params, 2, 7, mc, [&](std::uint64_t n) {
    return core::worst_profile_source(params, n);
  });
  EXPECT_LT(slope, 0.4);
}

TEST(CrossProperties, ScanPlacementIrrelevantUnderShuffledProfile) {
  // E12 under Theorem 1: on the i.i.d. reshuffle both scan placements
  // are adaptive (slope ~ 0).
  const model::RegularParams params{8, 4, 1.0};
  for (const engine::ScanPlacement placement :
       {engine::ScanPlacement::kEnd, engine::ScanPlacement::kInterleaved}) {
    engine::McOptions mc = mc_options(32, 42);
    mc.placement = placement;
    const double slope = ratio_slope(params, 2, 6, mc, [&](std::uint64_t n) {
      return core::shuffled_census_source(params, n);
    });
    EXPECT_LT(std::abs(slope), 0.2);
  }
}

TEST(CrossProperties, RandomizedScanPlacementBeatsFixedAdversary) {
  // E18 in miniature: on the deterministic M_{8,4}(256) (ratio 5 for the
  // deterministic algorithm under budgeted semantics), randomizing the
  // algorithm's per-node scan placement drops the ratio well below.
  const model::RegularParams params{8, 4, 1.0};
  const std::uint64_t n = 256;
  stats::Welford randomized;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto factory = [&]() -> std::unique_ptr<profile::BoxSource> {
      return std::make_unique<profile::WorstCaseSource>(8, 4, n);
    };
    profile::CyclingSource source(factory);
    const engine::RunResult r = engine::run_regular(
        params, n, source, engine::ScanPlacement::kAdversaryMatched,
        UINT64_C(1) << 40, seed, engine::BoxSemantics::kBudgeted);
    ASSERT_TRUE(r.completed);
    randomized.add(r.ratio);
  }
  EXPECT_LT(randomized.mean(), 4.0);  // deterministic baseline: 5.0
}

TEST(CrossProperties, BudgetedBoxCostConservation) {
  // A budgeted box that does not finish the execution advances constructs
  // whose total cost equals its size: feeding boxes of total cost C
  // completes an execution of total cost exactly C (cost = scan accesses
  // + problem sizes at wholesale completion; for unit boxes cost = units).
  engine::RegularExecution exec({4, 2, 1.0}, 64, engine::ScanPlacement::kEnd,
                                0, engine::BoxSemantics::kBudgeted);
  // All-unit boxes: number of boxes consumed must equal total units.
  std::uint64_t boxes = 0;
  while (!exec.done()) {
    exec.consume_box(1);
    ++boxes;
  }
  EXPECT_EQ(boxes, exec.total_units());
}

}  // namespace
}  // namespace cadapt
