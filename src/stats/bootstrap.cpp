#include "stats/bootstrap.hpp"

#include <algorithm>
#include <vector>

#include "stats/quantiles.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::stats {

namespace {

__extension__ typedef unsigned __int128 u128;

/// r % d by multiplication (Lemire, Kaser & Kurz, "Faster remainder by
/// direct computation", 2019): with M = ceil(2^128 / d), the top 64 bits
/// of (M·r mod 2^128)·d are r mod d, exactly, for every 64-bit r and d
/// (d = 1 wraps M to 0 and yields 0). Four multiplies instead of a
/// 64-bit division per resampled index.
class FastMod {
 public:
  explicit FastMod(std::uint64_t d) : d_(d), m_(~u128{0} / d + 1) {}

  std::uint64_t operator()(std::uint64_t r) const {
    const u128 low = m_ * r;
    const u128 bottom = (static_cast<u128>(static_cast<std::uint64_t>(low)) *
                         d_) >> 64;
    const u128 top = (low >> 64) * d_;
    return static_cast<std::uint64_t>((bottom + top) >> 64);
  }

 private:
  std::uint64_t d_;
  u128 m_;
};

}  // namespace

BootstrapCi bootstrap_mean_ci(std::span<const double> samples,
                              const BootstrapOptions& options,
                              std::uint64_t seed) {
  CADAPT_CHECK_MSG(!samples.empty(), "bootstrap_mean_ci requires samples");
  CADAPT_CHECK(options.confidence > 0.0 && options.confidence < 1.0);
  CADAPT_CHECK(options.resamples >= 1);

  double sum = 0.0;
  for (const double x : samples) sum += x;
  const double mean = sum / static_cast<double>(samples.size());

  BootstrapCi ci;
  ci.point = mean;
  if (samples.size() == 1) {
    ci.lo = ci.hi = mean;
    return ci;
  }

  // Each resample is n indices drawn as util::Rng::below(n) draws them —
  // same rejection threshold, same remainder — and summed left to right,
  // so every mean is bit-identical to the one-draw-at-a-time loop. The
  // indices of kLanes resamples are drawn first and their sums then run
  // side by side, each still in its own order.
  util::Rng rng(seed);
  const std::uint64_t n = samples.size();
  const std::uint64_t threshold = -n % n;
  const FastMod mod(n);
  constexpr std::size_t kLanes = 4;
  std::vector<std::size_t> index(kLanes * n);
  std::vector<double> means(options.resamples);
  const double dn = static_cast<double>(n);
  for (std::uint64_t r = 0; r < options.resamples; r += kLanes) {
    const std::size_t lanes = static_cast<std::size_t>(
        std::min<std::uint64_t>(kLanes, options.resamples - r));
    for (std::size_t k = 0; k < lanes * n; ++k) {
      std::uint64_t draw = rng();
      while (draw < threshold) draw = rng();
      index[k] = static_cast<std::size_t>(mod(draw));
    }
    if (lanes == kLanes) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        s0 += samples[index[i]];
        s1 += samples[index[n + i]];
        s2 += samples[index[2 * n + i]];
        s3 += samples[index[3 * n + i]];
      }
      means[r] = s0 / dn;
      means[r + 1] = s1 / dn;
      means[r + 2] = s2 / dn;
      means[r + 3] = s3 / dn;
      continue;
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      double resum = 0.0;
      for (std::size_t i = 0; i < n; ++i) resum += samples[index[lane * n + i]];
      means[r + lane] = resum / dn;
    }
  }
  const double alpha = 1.0 - options.confidence;
  ci.lo = select_quantile(means, alpha / 2.0);
  ci.hi = select_quantile(means, 1.0 - alpha / 2.0);
  return ci;
}

}  // namespace cadapt::stats
