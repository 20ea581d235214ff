#include "stats/quantiles.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cadapt::stats {

namespace {

/// The interpolation position of quantile q among n order statistics:
/// the lower index and the weight of the next one.
struct QuantilePos {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

QuantilePos quantile_pos(std::size_t n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

double interpolate(double lo, double hi, double frac) {
  return lo * (1.0 - frac) + hi * frac;
}

}  // namespace

double exact_quantile(std::vector<double> values, double q) {
  CADAPT_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, q);
}

double sorted_quantile(std::span<const double> sorted, double q) {
  CADAPT_CHECK(!sorted.empty());
  CADAPT_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const QuantilePos at = quantile_pos(sorted.size(), q);
  return interpolate(sorted[at.lo], sorted[at.hi], at.frac);
}

double select_quantile(std::vector<double>& values, double q) {
  CADAPT_CHECK(!values.empty());
  CADAPT_CHECK(q >= 0.0 && q <= 1.0);
  if (values.size() == 1) return values.front();
  const QuantilePos at = quantile_pos(values.size(), q);
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(at.lo);
  std::nth_element(values.begin(), lo, values.end());
  // Everything after the lo-th order statistic is >= it, so the next
  // order statistic is the smallest of them.
  const double hi =
      at.hi == at.lo ? *lo : *std::min_element(lo + 1, values.end());
  return interpolate(*lo, hi, at.frac);
}

P2Quantile::P2Quantile(double q) : q_(q) {
  CADAPT_CHECK_MSG(q > 0.0 && q < 1.0, "P2Quantile requires q in (0, 1)");
}

double P2Quantile::parabolic(int i, double d) const {
  // Piecewise-parabolic prediction of marker i's height after moving it
  // d positions (d is ±1 here).
  const double qi = heights_[static_cast<std::size_t>(i)];
  const double qm = heights_[static_cast<std::size_t>(i - 1)];
  const double qp = heights_[static_cast<std::size_t>(i + 1)];
  const double ni = positions_[static_cast<std::size_t>(i)];
  const double nm = positions_[static_cast<std::size_t>(i - 1)];
  const double np = positions_[static_cast<std::size_t>(i + 1)];
  return qi + d / (np - nm) *
                  ((ni - nm + d) * (qp - qi) / (np - ni) +
                   (np - ni - d) * (qi - qm) / (ni - nm));
}

double P2Quantile::linear(int i, int d) const {
  const double qi = heights_[static_cast<std::size_t>(i)];
  const double qd = heights_[static_cast<std::size_t>(i + d)];
  const double ni = positions_[static_cast<std::size_t>(i)];
  const double nd = positions_[static_cast<std::size_t>(i + d)];
  return qi + d * (qd - qi) / (nd - ni);
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (std::size_t i = 0; i < 5; ++i)
        positions_[i] = static_cast<double>(i + 1);
      desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
      increment_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
    }
    return;
  }

  // Locate the cell containing x and clamp the extreme markers.
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = std::max(heights_[4], x);
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increment_[i];
  ++count_;

  // Nudge the three interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const double diff = desired_[idx] - positions_[idx];
    const bool room_right = positions_[idx + 1] - positions_[idx] > 1.0;
    const bool room_left = positions_[idx] - positions_[idx - 1] > 1.0;
    if ((diff >= 1.0 && room_right) || (diff <= -1.0 && room_left)) {
      const double d = diff >= 1.0 ? 1.0 : -1.0;
      double candidate = parabolic(i, d);
      // Fall back to linear when the parabola would disorder the markers.
      if (candidate <= heights_[idx - 1] || candidate >= heights_[idx + 1])
        candidate = linear(i, static_cast<int>(d));
      heights_[idx] = candidate;
      positions_[idx] += d;
    }
  }
}

double P2Quantile::value() const {
  CADAPT_CHECK_MSG(count_ >= 1, "P2Quantile::value requires observations");
  if (count_ < 5) {
    // Exact while the sample still fits in the marker array.
    std::vector<double> sorted(heights_.begin(),
                               heights_.begin() + static_cast<long>(count_));
    return exact_quantile(std::move(sorted), q_);
  }
  return heights_[2];
}

}  // namespace cadapt::stats
