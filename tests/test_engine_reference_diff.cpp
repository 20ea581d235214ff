// Differential test: the production state machine (RegularExecution) must
// agree step-by-step with the brute-force flat-list oracle
// (ReferenceExecution) on random box sequences, across parameter sets and
// scan placements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "engine/exec.hpp"
#include "engine/reference.hpp"
#include "model/potential.hpp"
#include "model/regular.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt::engine {
namespace {

struct DiffCase {
  model::RegularParams params;
  unsigned levels;  // n = b^levels
  ScanPlacement placement;
};

std::string placement_tag(ScanPlacement p) {
  switch (p) {
    case ScanPlacement::kEnd: return "End";
    case ScanPlacement::kInterleaved: return "Inter";
    case ScanPlacement::kAdversaryMatched: return "Matched";
  }
  return "?";
}

std::string case_name(const testing::TestParamInfo<DiffCase>& info) {
  const auto& c = info.param;
  return "a" + std::to_string(c.params.a) + "b" + std::to_string(c.params.b) +
         "c" + std::to_string(static_cast<int>(c.params.c * 100)) + "k" +
         std::to_string(c.levels) + placement_tag(c.placement);
}

class EngineDiffTest : public testing::TestWithParam<DiffCase> {};

TEST_P(EngineDiffTest, AgreesWithOracleOnRandomBoxes) {
  const DiffCase& c = GetParam();
  const std::uint64_t n = util::ipow(c.params.b, c.levels);

  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const BoxSemantics semantics =
        seed % 2 == 0 ? BoxSemantics::kOptimistic : BoxSemantics::kBudgeted;
    const std::uint64_t adversary_seed = seed * 31;
    RegularExecution fast(c.params, n, c.placement, adversary_seed, semantics);
    ReferenceExecution slow(c.params, n, c.placement, adversary_seed,
                            semantics);
    ASSERT_EQ(fast.total_units(), slow.total_units());

    util::Rng rng(seed * 1000003);
    std::uint64_t steps = 0;
    while (!fast.done()) {
      ASSERT_FALSE(slow.done());
      // Mix of tiny, mid and huge boxes, biased toward small.
      std::uint64_t s;
      switch (rng.below(4)) {
        case 0: s = 1; break;
        case 1: s = 1 + rng.below(c.params.b); break;
        case 2: s = 1 + rng.below(n); break;
        default: s = 1 + rng.below(2 * n); break;
      }
      // Scan position before the box, for both machines: the identity
      // scan = units_done() - leaves_done() is what the observability
      // layer reports as per-box scan_advance, so its delta must agree
      // between production and oracle at every step.
      const std::uint64_t scan_f = fast.units_done() - fast.leaves_done();
      const std::uint64_t scan_s = slow.units_done() - slow.leaves_done();
      const BoxReport rf = fast.consume_box(s);
      const BoxReport rs = slow.consume_box(s);
      ASSERT_EQ(rf.progress, rs.progress)
          << "seed=" << seed << " step=" << steps << " s=" << s;
      ASSERT_EQ(rf.completed_problem, rs.completed_problem)
          << "seed=" << seed << " step=" << steps << " s=" << s;
      ASSERT_EQ(fast.units_done(), slow.units_done())
          << "seed=" << seed << " step=" << steps << " s=" << s;
      ASSERT_EQ(fast.leaves_done(), slow.leaves_done());
      ASSERT_EQ(fast.units_done() - fast.leaves_done() - scan_f,
                slow.units_done() - slow.leaves_done() - scan_s)
          << "scan_advance diverged: seed=" << seed << " step=" << steps
          << " s=" << s;
      ++steps;
      ASSERT_LT(steps, 1u << 22);
    }
    EXPECT_TRUE(slow.done());
    EXPECT_EQ(fast.leaves_done(), fast.total_leaves());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, EngineDiffTest,
    testing::Values(
        DiffCase{{8, 4, 1.0}, 3, ScanPlacement::kEnd},
        DiffCase{{8, 4, 1.0}, 3, ScanPlacement::kInterleaved},
        DiffCase{{8, 4, 0.0}, 3, ScanPlacement::kEnd},
        DiffCase{{7, 4, 1.0}, 3, ScanPlacement::kEnd},
        DiffCase{{2, 2, 1.0}, 5, ScanPlacement::kEnd},
        DiffCase{{2, 2, 1.0}, 5, ScanPlacement::kInterleaved},
        DiffCase{{4, 2, 1.0}, 4, ScanPlacement::kEnd},
        DiffCase{{4, 2, 1.0}, 4, ScanPlacement::kInterleaved},
        DiffCase{{4, 2, 0.5}, 4, ScanPlacement::kEnd},
        DiffCase{{3, 2, 0.5}, 4, ScanPlacement::kInterleaved},
        DiffCase{{2, 3, 1.0}, 3, ScanPlacement::kEnd},
        DiffCase{{1, 2, 1.0}, 4, ScanPlacement::kEnd},
        DiffCase{{5, 3, 0.7}, 3, ScanPlacement::kInterleaved},
        DiffCase{{8, 4, 1.0}, 1, ScanPlacement::kEnd},
        DiffCase{{8, 4, 1.0}, 0, ScanPlacement::kEnd},
        DiffCase{{8, 4, 1.0}, 3, ScanPlacement::kAdversaryMatched},
        DiffCase{{4, 2, 1.0}, 4, ScanPlacement::kAdversaryMatched},
        DiffCase{{3, 2, 0.5}, 4, ScanPlacement::kAdversaryMatched}),
    case_name);

// ---- LevelState: the level-indexed stack, call by call --------------------
//
// RegularExecution stores its stack as one row per level (docs/MODEL.md).
// Every public entry point — consume_box(s), the level-taking
// consume_box(s, level) and consume_run — is interleaved at random and,
// after every call, checked against the flat-list oracle and against a
// per-box twin fed the same boxes one consume_box(s) at a time: reports,
// units, leaves, boxes, done() and (twin only) the full stack signature.

struct LevelShape {
  model::RegularParams params;
  unsigned levels;  // n = b^levels
};

std::vector<LevelShape> level_shapes() {
  std::vector<LevelShape> shapes;
  for (const double c : {0.0, 0.5, 1.0}) {
    shapes.push_back({{8, 4, c}, 3});
    shapes.push_back({{7, 4, c}, 3});
    shapes.push_back({{4, 2, c}, 4});
    shapes.push_back({{4, 4, c}, 3});
    shapes.push_back({{2, 4, c}, 3});
    shapes.push_back({{1, 2, c}, 5});
  }
  return shapes;
}

// A box size from one of three classes: a power of b (small levels more
// often), a size that is not a power of b (mostly below b^2), or one >= n.
// A box >= n ends an optimistic execution, so that class is rare.
std::uint64_t level_box(const model::RegularParams& p, unsigned levels,
                        std::uint64_t n, util::Rng& rng) {
  const std::uint64_t kind = rng.below(256);
  if (kind == 0) return n + rng.below(3 * n + 1);
  if (kind < 160) {
    unsigned level = 0;
    while (level + 1 < levels && rng.below(2) == 0) ++level;
    return util::ipow(p.b, level);
  }
  const std::uint64_t span = kind < 248 ? p.b * p.b : n;
  for (;;) {
    const std::uint64_t s = 2 + rng.below(span);
    if (!util::is_power_of(s, p.b)) return s;
  }
}

TEST(LevelState, InterleavedCallsMatchOracleAndPerBoxTwin) {
  const ScanPlacement placements[] = {ScanPlacement::kEnd,
                                      ScanPlacement::kInterleaved,
                                      ScanPlacement::kAdversaryMatched};
  std::uint64_t calls = 0;
  for (const LevelShape& shape : level_shapes()) {
    const model::RegularParams& p = shape.params;
    const std::uint64_t n = util::ipow(p.b, shape.levels);
    for (const ScanPlacement placement : placements) {
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
          const std::string where = p.name() + " " +
                                    placement_tag(placement) + " " +
                                    (semantics == BoxSemantics::kOptimistic
                                         ? "optimistic"
                                         : "budgeted") +
                                    " seed=" + std::to_string(seed);
          const std::uint64_t adversary_seed = seed * 17;
          RegularExecution fast(p, n, placement, adversary_seed, semantics);
          RegularExecution twin(p, n, placement, adversary_seed, semantics);
          ReferenceExecution slow(p, n, placement, adversary_seed, semantics);
          model::BoundedPotentials potentials(p, n);
          util::Rng rng(seed * 7919 + shape.levels);
          std::uint64_t boxes = 0;
          for (std::uint64_t step = 0; !fast.done(); ++step) {
            ASSERT_LT(step, 1u << 20) << where;
            const std::uint64_t s = level_box(p, shape.levels, n, rng);
            const unsigned level =
                util::ilog(std::min<std::uint64_t>(n, s), p.b);
            ASSERT_EQ(fast.level_of(s), level) << where << " s=" << s;
            ASSERT_EQ(potentials.at(s).level, level) << where << " s=" << s;
            const std::string at =
                where + " step=" + std::to_string(step) + " s=" +
                std::to_string(s);
            const std::uint64_t op = rng.below(3);
            std::uint64_t progress = 0;
            std::uint64_t completed = 0;
            std::uint64_t count = 1;
            if (op == 2) {
              // Mostly short runs; sometimes long enough to retire
              // subtrees or replay a period.
              count = rng.below(16) == 0 ? 1 + rng.below(4 * n)
                                        : 1 + rng.below(8);
              const RunReport r = fast.consume_run(s, count);
              progress = r.progress;
              completed = r.completed_problem;
            } else {
              const BoxReport r =
                  op == 0 ? fast.consume_box(s) : fast.consume_box(s, level);
              progress = r.progress;
              completed = r.completed_problem;
            }
            const RunReport rs = slow.consume_run(s, count);
            RunReport rt;
            std::uint64_t used = 0;
            for (; used < count && !twin.done(); ++used) {
              const BoxReport r = twin.consume_box(s);
              rt.progress += r.progress;
              rt.completed_problem =
                  std::max(rt.completed_problem, r.completed_problem);
            }
            boxes += used;
            ++calls;
            ASSERT_EQ(progress, rs.progress) << at;
            ASSERT_EQ(completed, rs.completed_problem) << at;
            ASSERT_EQ(progress, rt.progress) << at;
            ASSERT_EQ(completed, rt.completed_problem) << at;
            ASSERT_EQ(fast.units_done(), slow.units_done()) << at;
            ASSERT_EQ(fast.leaves_done(), slow.leaves_done()) << at;
            ASSERT_EQ(fast.done(), slow.done()) << at;
            ASSERT_EQ(fast.units_done(), twin.units_done()) << at;
            ASSERT_EQ(fast.leaves_done(), twin.leaves_done()) << at;
            ASSERT_EQ(fast.boxes_consumed(), boxes) << at;
            ASSERT_EQ(twin.boxes_consumed(), boxes) << at;
            ASSERT_EQ(fast.done(), twin.done()) << at;
            ASSERT_EQ(fast.signature(), twin.signature()) << at;
          }
          EXPECT_EQ(fast.leaves_done(), fast.total_leaves()) << where;
          EXPECT_TRUE(fast.signature().empty()) << where;
        }
      }
    }
  }
  EXPECT_GT(calls, 10000u);
}

// The level overload trusts no caller: a level that is not
// floor(log_b min(n, s)) is rejected before any state changes.
TEST(LevelState, LevelOverloadRejectsAWrongLevel) {
  const model::RegularParams p{8, 4, 1.0};
  const std::uint64_t n = 64;
  RegularExecution exec(p, n);
  const StackSignature start = exec.signature();
  EXPECT_THROW(exec.consume_box(16, 1), util::CheckError);  // level 2
  EXPECT_THROW(exec.consume_box(15, 2), util::CheckError);  // level 1
  EXPECT_THROW(exec.consume_box(1000, 2), util::CheckError);  // level 3
  EXPECT_THROW(exec.consume_box(64, 4), util::CheckError);  // past the root
  EXPECT_THROW(exec.consume_box(0, 0), util::CheckError);
  EXPECT_EQ(exec.signature(), start);
  EXPECT_EQ(exec.boxes_consumed(), 0u);
  EXPECT_EQ(exec.consume_box(16, 2).progress, 64u);
  EXPECT_EQ(exec.level_of(1), 0u);
  EXPECT_EQ(exec.level_of(3), 0u);
  EXPECT_EQ(exec.level_of(4), 1u);
  EXPECT_EQ(exec.level_of(63), 2u);
  EXPECT_EQ(exec.level_of(64), 3u);
  EXPECT_EQ(exec.level_of(UINT64_MAX), 3u);
}

// level_of on every bit width, against the definition, for bases that are
// and are not powers of two, with n up to 2^62 (c = 0 keeps the unit
// counts of such large problems in range).
TEST(LevelState, LevelOfMatchesFloorLogOnEveryWidth) {
  const std::pair<model::RegularParams, std::uint64_t> cases[] = {
      {{2, 2, 0.0}, util::ipow(2, 62)}, {{8, 4, 0.0}, util::ipow(4, 21)},
      {{2, 3, 0.0}, util::ipow(3, 39)}, {{1, 5, 0.0}, util::ipow(5, 27)},
      {{1, 7, 0.0}, util::ipow(7, 22)}, {{8, 4, 0.0}, 1}};
  for (const auto& [p, n] : cases) {
    const RegularExecution exec(p, n);
    auto expect_level = [&](std::uint64_t s) {
      ASSERT_EQ(exec.level_of(s),
                util::ilog(std::min<std::uint64_t>(n, s), p.b))
          << p.name() << " n=" << n << " s=" << s;
    };
    for (unsigned w = 0; w < 64; ++w) {
      const std::uint64_t lo = UINT64_C(1) << w;
      for (const std::uint64_t s : {lo, lo + 1, 2 * lo - 1, lo + lo / 2}) {
        if (s != 0) expect_level(s);
      }
    }
    for (std::uint64_t m = 1; m <= n / p.b; m *= p.b) {
      for (const std::uint64_t s : {m, m * p.b - 1, m * p.b, m * p.b + 1}) {
        expect_level(s);
      }
    }
  }
}

}  // namespace
}  // namespace cadapt::engine
