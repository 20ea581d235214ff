// Speed-independent cost gate for the engine step (docs/PERF.md, "Engine
// step"): the engine alone, consuming pre-drawn iid:geometric:6 boxes of
// 8:4:1 at n = 4^6 through the public consume_box(s), against drawing
// those same boxes with sample_bits. The two loops alternate chunk by
// chunk in one process, so each pair of chunks sees the same host, and the
// median of the per-pair time ratios does not depend on how fast or how
// loaded the host is. Like the rest of the perf lane it is meant for
// optimized builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "engine/exec.hpp"
#include "profile/distributions.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt {
namespace {

constexpr std::size_t kChunkBoxes = std::size_t{1} << 18;
constexpr int kPairs = 48;  // 12.6M boxes in all

// Engine steps may cost at most this many sampling draws. The
// level-indexed engine measures 1.5-1.8 here (gcc 12, -O2 and -O3, on a
// 4-core Xeon VM); the stack walk it replaced measured 3.3.
constexpr double kMaxEngineOverSampling = 2.5;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(EngineStepCost, EngineStepUnderBoundTimesSamplingDraw) {
  const profile::GeometricPowers dist(4, 8.0, 0, 6);
  const model::RegularParams params{8, 4, 1.0};
  const std::uint64_t n = util::ipow(4, 6);
  std::vector<profile::BoxSize> boxes(kChunkBoxes);
  std::vector<double> ratios;
  util::Rng rng(11);
  engine::RegularExecution exec(params, n);
  std::uint64_t leaves = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    auto start = std::chrono::steady_clock::now();
    for (auto& s : boxes) s = dist.sample_bits(rng.bits53());
    const double sampling = seconds_since(start);

    start = std::chrono::steady_clock::now();
    for (const profile::BoxSize s : boxes) {
      if (exec.done()) {
        leaves += exec.leaves_done();
        exec = engine::RegularExecution(params, n);
      }
      exec.consume_box(s);
    }
    ratios.push_back(seconds_since(start) / sampling);
  }
  leaves += exec.leaves_done();
  EXPECT_GT(leaves, 0u);
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];
  EXPECT_LT(median, kMaxEngineOverSampling)
      << "per-pair ratios range " << ratios.front() << ".." << ratios.back();
  std::printf("engine/sampling per box: median %.2f, range %.2f..%.2f\n",
              median, ratios.front(), ratios.back());
}

}  // namespace
}  // namespace cadapt
