// Quantile estimation: the exact order-statistic form for stored samples
// and the P² streaming sketch for unbounded streams.
//
// The sweep report (src/campaign) uses exact_quantile — per-cell trial
// counts are small and the result must be a pure function of the samples
// so aggregated reports stay bit-identical across --jobs and --shards.
// P2Quantile is the O(1)-memory alternative for consumers that cannot
// hold the stream (million-trial campaigns, per-box latencies); its
// estimate is deterministic in the stream order and converges to the true
// quantile (tests/test_stats.cpp holds it to an empirical error bound).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace cadapt::stats {

/// Sample quantile by linear interpolation between order statistics;
/// q in [0, 1]. The input need not be sorted (taken by value).
double exact_quantile(std::vector<double> values, double q);

/// exact_quantile of already-sorted values, without the copy and sort:
/// sort once, then take any number of quantiles.
double sorted_quantile(std::span<const double> sorted, double q);

/// exact_quantile by selection: the same value, in O(n) instead of a
/// sort. Reorders `values` (any permutation of them stays valid input).
double select_quantile(std::vector<double>& values, double q);

/// P² (piecewise-parabolic) single-quantile estimator
/// (Jain & Chlamtac, CACM 1985): tracks five markers whose heights
/// approximate the q-quantile of everything added so far, in O(1) memory
/// and O(1) time per observation.
///
/// For fewer than five observations the estimate is exact (the
/// observations are simply stored); from the fifth on, marker positions
/// are adjusted toward their desired positions with parabolic (fallback
/// linear) interpolation.
class P2Quantile {
 public:
  /// q must be in (0, 1).
  explicit P2Quantile(double q);

  void add(double x);

  /// Current estimate of the q-quantile; exact for count() < 5.
  /// Requires count() >= 1.
  double value() const;

  std::size_t count() const { return count_; }
  double quantile() const { return q_; }

 private:
  double parabolic(int i, double d) const;
  double linear(int i, int d) const;

  double q_;
  std::size_t count_ = 0;
  std::array<double, 5> heights_{};    // marker heights (quantile estimates)
  std::array<double, 5> positions_{};  // actual marker positions (1-based)
  std::array<double, 5> desired_{};    // desired marker positions
  std::array<double, 5> increment_{};  // desired-position increments
};

}  // namespace cadapt::stats
