// Differential tests for the O(runs) bulk consumption path and the batch
// path for short-run random streams (docs/PERF.md).
//
// The contract under test is BIT-IDENTITY: the bulk driver — run-length
// consumption (consume_run), arithmetic scan stretches, and closed-form
// block replay (peek_block / classify_period / apply_period) — must
// produce exactly the same RunResult fields, recorder counters, and
// source stream as the literal per-box reference loop, across every
// (semantics x placement x source) combination and under arbitrary run
// fragmentation. Any divergence, however small, is a bug; there is no
// tolerance anywhere in this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/workloads.hpp"
#include "engine/analytic.hpp"
#include "engine/exec.hpp"
#include "engine/montecarlo.hpp"
#include "engine/reference.hpp"
#include "model/regular.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "profile/transforms.hpp"
#include "profile/worst_case.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt::engine {
namespace {

// A materialized stream re-served with RANDOM run boundaries: next() is
// per-box, next_run() returns a random-length prefix of the current
// equal-size stretch. Differential runs against this source prove that
// the engine's results never depend on where runs happen to break.
class FragmentingSource final : public profile::BoxSource {
 public:
  FragmentingSource(std::vector<profile::BoxSize> boxes, std::uint64_t seed)
      : boxes_(std::move(boxes)), rng_(seed) {}

  std::optional<profile::BoxSize> next() override {
    if (pos_ == boxes_.size()) return std::nullopt;
    return boxes_[pos_++];
  }

  std::optional<profile::BoxRun> next_run() override {
    if (pos_ == boxes_.size()) return std::nullopt;
    const profile::BoxSize size = boxes_[pos_];
    std::uint64_t stretch = 0;
    while (pos_ + stretch < boxes_.size() && boxes_[pos_ + stretch] == size) {
      ++stretch;
    }
    const std::uint64_t count = 1 + rng_.below(stretch);
    pos_ += count;
    return profile::BoxRun{size, count};
  }

 private:
  std::vector<profile::BoxSize> boxes_;
  std::size_t pos_ = 0;
  util::Rng rng_;
};

// DistributionSource borrows its distribution; this wrapper owns both so
// a SourceCase factory can hand out self-contained instances.
class OwningDistSource final : public profile::BoxSource {
 public:
  OwningDistSource(std::shared_ptr<const profile::BoxDistribution> dist,
                   std::uint64_t seed)
      : dist_(std::move(dist)), src_(*dist_, util::Rng(seed)) {}

  std::optional<profile::BoxSize> next() override { return src_.next(); }
  std::optional<profile::BoxRun> next_run() override {
    return src_.next_run();
  }

 private:
  std::shared_ptr<const profile::BoxDistribution> dist_;
  profile::DistributionSource src_;
};

std::vector<profile::BoxSize> worst_boxes(const model::RegularParams& p,
                                          std::uint64_t n) {
  profile::WorstCaseSource src(p.a, p.b, n);
  return profile::materialize(src);
}

struct SourceCase {
  std::string name;
  std::function<std::unique_ptr<profile::BoxSource>()> make;
};

// One factory per source family the bulk path special-cases. Every make()
// call yields a fresh instance with identical seeds, so a differential
// pair sees the same stream values.
std::vector<SourceCase> source_cases(const model::RegularParams& p,
                                     std::uint64_t n) {
  std::vector<SourceCase> cases;
  cases.push_back({"worst", [p, n] {
                     return std::make_unique<profile::WorstCaseSource>(
                         p.a, p.b, n);
                   }});
  cases.push_back({"worst-cycling", [p, n] {
                     return std::make_unique<profile::CyclingSource>([p, n] {
                       return std::make_unique<profile::WorstCaseSource>(
                           p.a, p.b, n);
                     });
                   }});
  const std::vector<profile::BoxSize> boxes = worst_boxes(p, n);
  std::vector<profile::BoxSize> shuffled = boxes;
  util::Rng shuffle_rng(123);
  profile::shuffle_boxes(shuffled, shuffle_rng);
  cases.push_back({"shuffled-cycling", [shuffled] {
                     return std::make_unique<profile::VectorSource>(
                         shuffled, /*cycle=*/true);
                   }});
  cases.push_back({"fragmented-worst", [boxes] {
                     return std::make_unique<FragmentingSource>(boxes, 999);
                   }});
  cases.push_back(
      {"iid-geometric", [p] {
         auto dist = std::make_shared<profile::GeometricPowers>(
             p.b, static_cast<double>(p.a), 0, 4);
         return std::make_unique<OwningDistSource>(std::move(dist), 77);
       }});
  cases.push_back({"iid-point", [] {
                     auto dist = std::make_shared<profile::PointMass>(16);
                     return std::make_unique<OwningDistSource>(
                         std::move(dist), 78);
                   }});
  cases.push_back(
      {"perturbed-worst", [p, n] {
         return std::make_unique<profile::SizePerturbSource>(
             std::make_unique<profile::WorstCaseSource>(p.a, p.b, n),
             profile::uniform_int_perturb(3), util::Rng(7));
       }});
  cases.push_back({"shifted-worst", [p, n] {
                     return std::make_unique<profile::CyclicShiftSource>(
                         [p, n] {
                           return std::make_unique<profile::WorstCaseSource>(
                               p.a, p.b, n);
                         },
                         /*offset=*/13);
                   }});
  return cases;
}

std::vector<model::RegularParams> shapes() {
  model::RegularParams p1;
  p1.a = 8, p1.b = 4, p1.c = 1.0;
  model::RegularParams p2;
  p2.a = 4, p2.b = 2, p2.c = 1.0;
  model::RegularParams p3;  // a < b: the unit-progress regime
  p3.a = 2, p3.b = 4, p3.c = 1.0;
  return {p1, p2, p3};
}

void expect_same_result(const RunResult& bulk, const RunResult& ref,
                        const std::string& label) {
  EXPECT_EQ(bulk.completed, ref.completed) << label;
  EXPECT_EQ(bulk.stop, ref.stop) << label;
  EXPECT_EQ(bulk.boxes, ref.boxes) << label;
  EXPECT_EQ(bulk.leaves, ref.leaves) << label;
  EXPECT_EQ(bulk.sum_bounded_potential, ref.sum_bounded_potential) << label;
  EXPECT_EQ(bulk.ratio, ref.ratio) << label;
  EXPECT_EQ(bulk.unit_ratio, ref.unit_ratio) << label;
}

// Every aggregate counter of a kRuns recorder — including the
// per-size-class tallies and branch counts — equals per-box recording's.
void expect_same_counters(const obs::ExecRecorder& runs_rec,
                          const obs::ExecRecorder& box_rec,
                          const std::string& label) {
  EXPECT_EQ(runs_rec.boxes(), box_rec.boxes()) << label;
  EXPECT_EQ(runs_rec.sum_box_sizes(), box_rec.sum_box_sizes()) << label;
  EXPECT_EQ(runs_rec.total_progress(), box_rec.total_progress()) << label;
  EXPECT_EQ(runs_rec.total_scan_advance(), box_rec.total_scan_advance())
      << label;
  EXPECT_EQ(runs_rec.completions(), box_rec.completions()) << label;
  for (const obs::ExecBranch branch :
       {obs::ExecBranch::kCompleteJump, obs::ExecBranch::kScanAdvance,
        obs::ExecBranch::kBudgeted}) {
    EXPECT_EQ(runs_rec.branch_count(branch), box_rec.branch_count(branch))
        << label;
  }
  for (std::size_t cls = 0; cls < 64; ++cls) {
    const auto& a = runs_rec.size_classes()[cls];
    const auto& b = box_rec.size_classes()[cls];
    EXPECT_EQ(a.boxes, b.boxes) << label << " class " << cls;
    EXPECT_EQ(a.sum_box, b.sum_box) << label << " class " << cls;
    EXPECT_EQ(a.progress, b.progress) << label << " class " << cls;
    EXPECT_EQ(a.scan_advance, b.scan_advance) << label << " class " << cls;
    EXPECT_EQ(a.completions, b.completions) << label << " class " << cls;
  }
}

// The full differential matrix: every RunResult field must be EXACTLY
// equal between the bulk driver and the per-box reference loop — shapes x
// placements x semantics x sources x box caps (caps chosen to land
// mid-run, mid-block, and never).
TEST(BulkDifferential, BitIdenticalToPerBoxEverywhere) {
  for (const model::RegularParams& p : shapes()) {
    const unsigned k = p.b == 2 ? 7u : 4u;
    const std::uint64_t n = util::ipow(p.b, k);
    for (const ScanPlacement placement :
         {ScanPlacement::kEnd, ScanPlacement::kInterleaved,
          ScanPlacement::kAdversaryMatched}) {
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        for (const SourceCase& source_case : source_cases(p, n)) {
          for (const std::uint64_t cap :
               {std::uint64_t{37}, std::uint64_t{1000},
                UINT64_C(1) << 40}) {
            const std::string label =
                p.name() + " " + source_case.name + " placement=" +
                std::to_string(static_cast<int>(placement)) + " semantics=" +
                std::to_string(static_cast<int>(semantics)) +
                " cap=" + std::to_string(cap);
            auto bulk_source = source_case.make();
            auto ref_source = source_case.make();
            RunOptions bulk_options;
            bulk_options.max_boxes = cap;
            RunOptions ref_options;
            ref_options.max_boxes = cap;
            ref_options.per_box = true;
            expect_same_result(
                run_regular(p, n, *bulk_source, placement,
                            /*adversary_seed=*/5, semantics, bulk_options),
                run_regular(p, n, *ref_source, placement,
                            /*adversary_seed=*/5, semantics, ref_options),
                label);
          }
        }
      }
    }
  }
}

// A recorder in kBoxes granularity (the default) must force the literal
// per-box path: the emitted event stream is byte-identical whether or not
// the caller asked for per_box explicitly.
TEST(BulkRecorder, KBoxesGranularityForcesPerBoxTrace) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 3u);

  obs::MemorySink bulk_sink;
  obs::ExecRecorder bulk_rec(&bulk_sink);  // kBoxes default
  profile::WorstCaseSource bulk_source(p.a, p.b, n);
  RunOptions bulk_options;
  bulk_options.recorder = &bulk_rec;
  RegularExecution bulk_exec(p, n);
  const RunResult bulk = run_to_completion(bulk_exec, bulk_source,
                                           bulk_options);

  obs::MemorySink ref_sink;
  obs::ExecRecorder ref_rec(&ref_sink);
  profile::WorstCaseSource ref_source(p.a, p.b, n);
  RunOptions ref_options;
  ref_options.recorder = &ref_rec;
  ref_options.per_box = true;
  RegularExecution ref_exec(p, n);
  const RunResult ref = run_to_completion(ref_exec, ref_source, ref_options);

  EXPECT_EQ(bulk.boxes, ref.boxes);
  ASSERT_EQ(bulk_sink.events().size(), ref_sink.events().size());
  for (std::size_t i = 0; i < bulk_sink.events().size(); ++i) {
    EXPECT_TRUE(bulk_sink.events()[i] == ref_sink.events()[i])
        << "event " << i << " diverged";
  }
}

// A kRuns recorder rides the bulk path, yet every aggregate counter —
// including the per-size-class tallies and branch counts — must equal
// what per-box recording produces.
TEST(BulkRecorder, KRunsCountersExactlyMatchPerBox) {
  for (const model::RegularParams& p : shapes()) {
    const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 6u : 4u);
    for (const BoxSemantics semantics :
         {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
      obs::ExecRecorder runs_rec(nullptr, obs::BoxGranularity::kRuns);
      profile::WorstCaseSource runs_source(p.a, p.b, n);
      RunOptions runs_options;
      runs_options.recorder = &runs_rec;
      RegularExecution runs_exec(p, n, ScanPlacement::kEnd, 0, semantics);
      run_to_completion(runs_exec, runs_source, runs_options);

      obs::ExecRecorder box_rec(nullptr);
      profile::WorstCaseSource box_source(p.a, p.b, n);
      RunOptions box_options;
      box_options.recorder = &box_rec;
      box_options.per_box = true;
      RegularExecution box_exec(p, n, ScanPlacement::kEnd, 0, semantics);
      run_to_completion(box_exec, box_source, box_options);

      const std::string label = p.name();
      expect_same_counters(runs_rec, box_rec, label);
      // Conservation holds through the bulk path too.
      EXPECT_EQ(runs_rec.total_progress() + runs_rec.total_scan_advance(),
                runs_exec.total_units())
          << label;
    }
  }
}

// Constant streams (docs/PERF.md, "Constant streams"): under optimistic
// semantics a point-mass run retires whole fresh subproblems at once.
// Sizes below, at, just above and far above a power of b; n = b^6 or
// more so the retired subtrees span several levels; caps that land
// mid-subtree. Budgeted runs keep the period-probe path and are checked
// the same way.
TEST(PointMassDifferential, SubtreeRetirementBitIdenticalToPerBox) {
  for (const model::RegularParams& p : shapes()) {
    const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 9u : 6u);
    for (const profile::BoxSize size : {1u, 3u, 16u, 17u, 64u}) {
      auto dist = std::make_shared<profile::PointMass>(size);
      for (const ScanPlacement placement :
           {ScanPlacement::kEnd, ScanPlacement::kInterleaved,
            ScanPlacement::kAdversaryMatched}) {
        for (const BoxSemantics semantics :
             {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
          for (const std::uint64_t cap :
               {std::uint64_t{37}, std::uint64_t{1001},
                std::uint64_t{77777}, UINT64_C(1) << 40}) {
            const std::string label =
                p.name() + " point:" + std::to_string(size) + " placement=" +
                std::to_string(static_cast<int>(placement)) + " semantics=" +
                std::to_string(static_cast<int>(semantics)) +
                " cap=" + std::to_string(cap);
            OwningDistSource bulk_source(dist, 3);
            OwningDistSource ref_source(dist, 3);
            RunOptions bulk_options;
            bulk_options.max_boxes = cap;
            RunOptions ref_options = bulk_options;
            ref_options.per_box = true;
            expect_same_result(
                run_regular(p, n, bulk_source, placement,
                            /*adversary_seed=*/5, semantics, bulk_options),
                run_regular(p, n, ref_source, placement,
                            /*adversary_seed=*/5, semantics, ref_options),
                label);
          }
        }
      }
    }
  }
}

// The run-level report of a subtree retirement — progress and the largest
// problem completed, including the cascade past the retired subtree —
// equals the brute-force oracle's, whatever the run lengths.
TEST(PointMassDifferential, RunReportsMatchReferenceOracle) {
  util::Rng rng(2718);
  for (const model::RegularParams& p : shapes()) {
    const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 8u : 5u);
    for (const profile::BoxSize size : {1u, 3u, 16u, 17u, 64u}) {
      for (const ScanPlacement placement :
           {ScanPlacement::kEnd, ScanPlacement::kInterleaved,
            ScanPlacement::kAdversaryMatched}) {
        RegularExecution exec(p, n, placement, 9);
        ReferenceExecution oracle(p, n, placement, 9);
        while (!exec.done()) {
          const std::uint64_t count = 1 + rng.below(3000);
          const RunReport got = exec.consume_run(size, count);
          const RunReport want = oracle.consume_run(size, count);
          const std::string label = p.name() + " point:" +
                                    std::to_string(size) + " placement=" +
                                    std::to_string(static_cast<int>(placement));
          ASSERT_EQ(got.progress, want.progress) << label;
          ASSERT_EQ(got.completed_problem, want.completed_problem) << label;
          ASSERT_EQ(exec.units_done(), oracle.units_done()) << label;
          ASSERT_EQ(exec.leaves_done(), oracle.leaves_done()) << label;
          ASSERT_EQ(exec.done(), oracle.done()) << label;
        }
      }
    }
  }
}

// A kRuns recorder keeps point-mass runs off the subtree retirement, and
// its totals still equal per-box recording.
TEST(PointMassDifferential, KRunsCountersMatchPerBox) {
  for (const model::RegularParams& p : shapes()) {
    const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 8u : 5u);
    for (const profile::BoxSize size : {1u, 3u, 16u, 17u, 64u}) {
      auto dist = std::make_shared<profile::PointMass>(size);
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        obs::ExecRecorder runs_rec(nullptr, obs::BoxGranularity::kRuns);
        OwningDistSource runs_source(dist, 1);
        RunOptions runs_options;
        runs_options.recorder = &runs_rec;
        RegularExecution runs_exec(p, n, ScanPlacement::kEnd, 0, semantics);
        run_to_completion(runs_exec, runs_source, runs_options);

        obs::ExecRecorder box_rec(nullptr);
        OwningDistSource box_source(dist, 1);
        RunOptions box_options;
        box_options.recorder = &box_rec;
        box_options.per_box = true;
        RegularExecution box_exec(p, n, ScanPlacement::kEnd, 0, semantics);
        run_to_completion(box_exec, box_source, box_options);

        expect_same_counters(
            runs_rec, box_rec,
            p.name() + " point:" + std::to_string(size) + " semantics=" +
                std::to_string(static_cast<int>(semantics)));
      }
    }
  }
}

// Lemma 3's f(n) as an independent oracle where per-box runs are out of
// reach (k = 12 of 8:4:1 is ~2.1e9 boxes): for a point mass the
// recurrence is exact integer arithmetic in doubles, and every
// Monte-Carlo trial must consume exactly f(n) boxes.
TEST(LemmaThreeOracle, PointMassBoxesEqualAnalyticF) {
  struct Case {
    model::RegularParams p;
    profile::BoxSize size;
  };
  for (const Case& c : {Case{{8, 4, 1.0}, 16}, Case{{4, 2, 1.0}, 16},
                        Case{{3, 2, 1.0}, 5}}) {
    const profile::PointMass point(c.size);
    const AnalyticSolver solver(c.p, point);
    const std::vector<AnalyticLevel> levels =
        solver.solve(util::ipow(c.p.b, 12u));
    ASSERT_EQ(levels.size(), 13u);
    for (unsigned k = 1; k <= 12; ++k) {
      const std::uint64_t n = util::ipow(c.p.b, k);
      McOptions options;
      options.trials = 3;
      options.seed = k;
      const McSummary summary = run_monte_carlo_iid(c.p, n, point, options);
      const std::string label =
          c.p.name() + " point:" + std::to_string(c.size) + " k=" +
          std::to_string(k);
      ASSERT_EQ(levels[k].n, n) << label;
      EXPECT_EQ(summary.ratio.count(), 3u) << label;
      EXPECT_EQ(summary.boxes.min(), levels[k].f) << label;
      EXPECT_EQ(summary.boxes.max(), levels[k].f) << label;
    }
  }
}

// A probe opens at the first repeat of every recursion node, not only at
// the node on top of the source stack, so each node runs two children
// literally (the first, probed, and the last) and replays the rest:
// (4,4,1) at n = 4^8 emits 2^8 - 1 bulk events, where probing the top
// node only emitted 3^7 = 2187.
TEST(SourceBlocks, WorstCaseProbesEveryNode) {
  model::RegularParams p;
  p.a = 4, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 8u);
  obs::MemorySink sink;
  obs::ExecRecorder recorder(&sink, obs::BoxGranularity::kRuns);
  profile::WorstCaseSource source(p.a, p.b, n);
  RunOptions options;
  options.recorder = &recorder;
  RegularExecution exec(p, n);
  const RunResult result = run_to_completion(exec, source, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.boxes, profile::worst_case_box_count(p.a, p.b, n));
  const auto bulk = std::count_if(
      sink.events().begin(), sink.events().end(),
      [](const obs::Event& e) { return e.type == "bulk"; });
  EXPECT_LE(bulk, 1 << 8);
  EXPECT_GT(bulk, 0);
}

// enter_repeat steps into a repeat without consuming a box: a source that
// steps in wherever it can still delivers its plain stream.
TEST(SourceBlocks, EnterRepeatLeavesTheStreamUnchanged) {
  for (const std::uint64_t b : {2u, 4u}) {
    const std::uint64_t a = 3, n = util::ipow(b, 5u);
    profile::WorstCaseSource plain(a, b, n);
    const std::vector<profile::BoxSize> want = profile::materialize(plain);
    profile::WorstCaseSource entered(a, b, n);
    std::vector<profile::BoxSize> got;
    std::uint64_t steps = 0;
    while (true) {
      while (entered.enter_repeat()) ++steps;
      const auto run = entered.next_run();
      if (!run) break;
      got.insert(got.end(), run->count, run->size);
    }
    EXPECT_EQ(got, want) << "b=" << b;
    EXPECT_GT(steps, 0u) << "b=" << b;
  }
}

// StopReason must say WHY the run ended, identically in both drivers.
TEST(StopReason, DistinguishesCompletionExhaustionAndCap) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 3u);
  for (const bool per_box : {false, true}) {
    RunOptions options;
    options.per_box = per_box;

    profile::WorstCaseSource full(p.a, p.b, n);
    RegularExecution exec_full(p, n);
    const RunResult done = run_to_completion(exec_full, full, options);
    EXPECT_TRUE(done.completed);
    EXPECT_EQ(done.stop, StopReason::kCompleted);

    profile::VectorSource short_source({1, 1, 1});
    RegularExecution exec_short(p, n);
    const RunResult dry = run_to_completion(exec_short, short_source, options);
    EXPECT_FALSE(dry.completed);
    EXPECT_EQ(dry.stop, StopReason::kSourceExhausted);
    EXPECT_EQ(dry.boxes, 3u);

    profile::WorstCaseSource capped_source(p.a, p.b, n);
    RunOptions capped_options = options;
    capped_options.max_boxes = 10;
    RegularExecution exec_capped(p, n);
    const RunResult capped =
        run_to_completion(exec_capped, capped_source, capped_options);
    EXPECT_FALSE(capped.completed);
    EXPECT_EQ(capped.stop, StopReason::kBoxCapHit);
    EXPECT_EQ(capped.boxes, 10u);
  }
}

// The No-Catch-up Lemma invariant behind run-coalescing: however a box
// stream is chopped into runs, the execution position (units_done) agrees
// with per-box consumption at EVERY run boundary — not just at the end.
TEST(RunCoalescing, UnitsDoneAgreesAtEveryRunBoundary) {
  for (const model::RegularParams& p : shapes()) {
    const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 6u : 3u);
    for (const ScanPlacement placement :
         {ScanPlacement::kEnd, ScanPlacement::kInterleaved}) {
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        const std::vector<profile::BoxSize> boxes = worst_boxes(p, n);
        FragmentingSource runs(boxes, 4242);
        RegularExecution by_runs(p, n, placement, 0, semantics);
        RegularExecution by_boxes(p, n, placement, 0, semantics);
        std::size_t consumed = 0;
        while (!by_runs.done()) {
          const auto run = runs.next_run();
          if (!run) break;
          const RunReport report = by_runs.consume_run(run->size, run->count);
          std::uint64_t progress = 0;
          const std::uint64_t used = by_runs.boxes_consumed() - consumed;
          for (std::uint64_t i = 0; i < used; ++i) {
            progress += by_boxes.consume_box(run->size).progress;
          }
          consumed += used;
          EXPECT_EQ(report.progress, progress);
          EXPECT_EQ(by_runs.units_done(), by_boxes.units_done());
          EXPECT_EQ(by_runs.leaves_done(), by_boxes.leaves_done());
          EXPECT_EQ(by_runs.boxes_consumed(), by_boxes.boxes_consumed());
          EXPECT_EQ(by_runs.done(), by_boxes.done());
        }
      }
    }
  }
}

// kInterleaved x kBudgeted against the brute-force oracle — the
// combination the satellite issue singled out as under-tested.
TEST(InterleavedBudgeted, MatchesReferenceOracleOnRandomRuns) {
  model::RegularParams p;
  p.a = 4, p.b = 2, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 5u);
  util::Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    RegularExecution exec(p, n, ScanPlacement::kInterleaved, 0,
                          BoxSemantics::kBudgeted);
    ReferenceExecution oracle(p, n, ScanPlacement::kInterleaved, 0,
                              BoxSemantics::kBudgeted);
    while (!exec.done()) {
      const profile::BoxSize size = 1 + rng.below(n);
      const std::uint64_t count = 1 + rng.below(8);
      const RunReport got = exec.consume_run(size, count);
      const RunReport want = oracle.consume_run(size, count);
      EXPECT_EQ(got.progress, want.progress);
      EXPECT_EQ(got.completed_problem, want.completed_problem);
      EXPECT_EQ(exec.units_done(), oracle.units_done());
      EXPECT_EQ(exec.leaves_done(), oracle.leaves_done());
      EXPECT_EQ(exec.done(), oracle.done());
    }
    EXPECT_TRUE(oracle.done());
  }
}

// Stream identity at the source layer: expanding the next_run() stream of
// a twin instance reproduces the next() stream box for box.
TEST(SourceRuns, RunExpansionReproducesNextStream) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 3u);
  for (const SourceCase& source_case : source_cases(p, n)) {
    auto run_side = source_case.make();
    auto box_side = source_case.make();
    std::size_t compared = 0;
    while (compared < 5000) {
      const auto run = run_side->next_run();
      if (!run) {
        EXPECT_EQ(box_side->next(), std::nullopt) << source_case.name;
        break;
      }
      ASSERT_GE(run->count, 1u) << source_case.name;
      // A point-mass run spans 2^40 boxes: stop at the budget mid-run.
      for (std::uint64_t i = 0; i < run->count && compared < 5000; ++i) {
        const auto box = box_side->next();
        ASSERT_TRUE(box.has_value()) << source_case.name;
        EXPECT_EQ(*box, run->size)
            << source_case.name << " at box " << compared;
        ++compared;
      }
    }
  }
}

// The SubtreeBlock contract on the worst-case source: after peeking a
// block and consuming exactly one repeat, skip_repeats(m) must leave the
// stream exactly where a per-box twin lands after (m + 1) repeats — and
// the skipped boxes must really be identical copies of the probed repeat.
TEST(SourceBlocks, WorstCaseSkipRepeatsMatchesPlainStream) {
  profile::WorstCaseSource blocked(8, 4, 256);
  profile::WorstCaseSource plain(8, 4, 256);

  // Advance both past the first leaf run so the block peek lands on an
  // interior repeat boundary too; then probe whatever block comes next.
  bool probed = false;
  std::size_t guard = 0;
  while (!probed && guard++ < 10000) {
    const auto block = blocked.peek_block();
    if (block && block->repeats >= 2 && block->boxes_per_repeat >= 2) {
      // Consume one repeat from the blocked side, recording it.
      std::vector<profile::BoxSize> repeat;
      while (repeat.size() < block->boxes_per_repeat) {
        const auto run = blocked.next_run();
        ASSERT_TRUE(run.has_value());
        for (std::uint64_t i = 0; i < run->count; ++i) {
          repeat.push_back(run->size);
        }
      }
      ASSERT_EQ(repeat.size(), block->boxes_per_repeat);
      const std::uint64_t m = block->repeats - 1;
      blocked.skip_repeats(m);
      // The plain twin must see: (m + 1) identical copies of `repeat`...
      for (std::uint64_t r = 0; r <= m; ++r) {
        for (std::size_t i = 0; i < repeat.size(); ++i) {
          const auto box = plain.next();
          ASSERT_TRUE(box.has_value());
          EXPECT_EQ(*box, repeat[i]) << "repeat " << r << " box " << i;
        }
      }
      probed = true;
    } else {
      // No block here: both sides advance one box in lockstep.
      const auto box = blocked.next();
      const auto twin = plain.next();
      ASSERT_EQ(box.has_value(), twin.has_value());
      if (!box) break;
      EXPECT_EQ(*box, *twin);
    }
  }
  ASSERT_TRUE(probed) << "worst-case source never announced a block";

  // ...and from here on the streams must agree to the end.
  while (true) {
    const auto box = blocked.next();
    const auto twin = plain.next();
    ASSERT_EQ(box.has_value(), twin.has_value());
    if (!box) break;
    EXPECT_EQ(*box, *twin);
  }
}

// A cyclic shift of M_{a,b}(n) forwards the inner SubtreeBlocks, clamped
// after the wrap to the tail still owed. Every offset of every shape must
// give a RunResult bit-identical to the per-box reference, with and
// without the CyclingSource wrapper the `shifted` profile token uses; most
// offsets end their wrapped tail mid-block, so the clamp is exercised.
// The profile M_{a,b}(n/b) is one level too small for the algorithm, so
// its cycled runs cross many wrapped tails.
TEST(ShiftBlocks, EveryOffsetMatchesPerBox) {
  struct Shape {
    std::uint64_t a, b;
    unsigned k;
  };
  for (const Shape shape : {Shape{8, 4, 3}, Shape{7, 4, 3}, Shape{4, 2, 4},
                            Shape{3, 2, 5}}) {
    model::RegularParams p;
    p.a = shape.a, p.b = shape.b, p.c = 1.0;
    const std::uint64_t n = util::ipow(p.b, shape.k);
    for (const std::uint64_t profile_n : {n, n / p.b}) {
      const std::uint64_t total =
          profile::worst_case_box_count(p.a, p.b, profile_n);
      auto base = [p, profile_n] {
        return std::make_unique<profile::WorstCaseSource>(p.a, p.b, profile_n);
      };
      for (std::uint64_t offset = 0; offset < total; ++offset) {
        auto shifted = [base, offset]() -> std::unique_ptr<profile::BoxSource> {
          return std::make_unique<profile::CyclicShiftSource>(base, offset);
        };
        auto cycled = [shifted]() -> std::unique_ptr<profile::BoxSource> {
          return std::make_unique<profile::CyclingSource>(shifted);
        };
        for (const auto& [wrapper, make] :
             {std::pair{"plain", std::function(shifted)},
              std::pair{"cycling", std::function(cycled)}}) {
          for (const BoxSemantics semantics :
               {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
            const std::string label =
                p.name() + " profile_n=" + std::to_string(profile_n) + " " +
                wrapper + " offset=" + std::to_string(offset) +
                " semantics=" + std::to_string(static_cast<int>(semantics));
            auto bulk_source = make();
            auto ref_source = make();
            RunOptions ref_options;
            ref_options.per_box = true;
            const RunResult bulk =
                run_regular(p, n, *bulk_source, ScanPlacement::kEnd, 0,
                            semantics, RunOptions{});
            const RunResult ref = run_regular(p, n, *ref_source,
                                              ScanPlacement::kEnd, 0,
                                              semantics, ref_options);
            ASSERT_EQ(bulk.stop, ref.stop) << label;
            ASSERT_EQ(bulk.boxes, ref.boxes) << label;
            ASSERT_EQ(bulk.leaves, ref.leaves) << label;
            ASSERT_EQ(bulk.sum_bounded_potential, ref.sum_bounded_potential)
                << label;
            ASSERT_EQ(bulk.ratio, ref.ratio) << label;
            ASSERT_EQ(bulk.unit_ratio, ref.unit_ratio) << label;
          }
        }
      }
    }
  }
}

// The source side of the shift's blocks: greedily skipping every announced
// block after one consumed repeat must reproduce the rotated profile, no
// announced block may reach past the end of the rotation, and a block
// wrapped mid-tail is clamped to the whole repeats that still fit.
TEST(ShiftBlocks, SkippedStreamIsTheRotation) {
  const std::uint64_t a = 8, b = 4, n = 16;
  const std::vector<profile::BoxSize> plain =
      worst_boxes(model::RegularParams{a, b, 1.0}, n);
  const std::uint64_t total = plain.size();
  auto base = [a, b, n] {
    return std::make_unique<profile::WorstCaseSource>(a, b, n);
  };
  std::uint64_t skipped_after_wrap = 0;
  for (std::uint64_t offset = 0; offset < total; ++offset) {
    profile::CyclicShiftSource shifted(base, offset);
    std::vector<profile::BoxSize> got;
    while (true) {
      if (const auto blk = shifted.peek_block()) {
        ASSERT_LE(got.size() + blk->repeats * blk->boxes_per_repeat, total)
            << "offset " << offset;
        // One-box repeats arrive inside longer runs; the engine's driver
        // skips them too.
        if (blk->repeats >= 2 && blk->boxes_per_repeat >= 2) {
          const std::size_t start = got.size();
          while (got.size() < start + blk->boxes_per_repeat) {
            const auto run = shifted.next_run();
            ASSERT_TRUE(run.has_value());
            got.insert(got.end(), run->count, run->size);
          }
          ASSERT_EQ(got.size(), start + blk->boxes_per_repeat);
          const std::vector<profile::BoxSize> repeat(
              got.begin() + static_cast<long>(start), got.end());
          shifted.skip_repeats(blk->repeats - 1);
          for (std::uint64_t r = 1; r < blk->repeats; ++r) {
            got.insert(got.end(), repeat.begin(), repeat.end());
          }
          if (start >= total - offset) ++skipped_after_wrap;
          continue;
        }
      }
      const auto run = shifted.next_run();
      if (!run) break;
      got.insert(got.end(), run->count, run->size);
    }
    std::vector<profile::BoxSize> expected(
        plain.begin() + static_cast<long>(offset), plain.end());
    expected.insert(expected.end(), plain.begin(),
                    plain.begin() + static_cast<long>(offset));
    EXPECT_EQ(got, expected) << "offset " << offset;
  }
  EXPECT_GT(skipped_after_wrap, 0u);

  // Offset 30 of M_{8,4}(16) (73 boxes): after the wrap the first M(4)
  // (9 boxes) arrives as runs, then the root announces 7 repeats of 9
  // boxes; only 21 boxes are still owed, so 2 whole repeats fit.
  profile::CyclicShiftSource clamped(base, 30);
  std::uint64_t emitted = 0;
  while (emitted < total - 30 + 9) emitted += clamped.next_run()->count;
  ASSERT_EQ(emitted, total - 30 + 9);
  const auto blk = clamped.peek_block();
  ASSERT_TRUE(blk.has_value());
  EXPECT_EQ(blk->boxes_per_repeat, 9u);
  EXPECT_EQ(blk->repeats, 2u);
}

// A reference perturbation that pulls its inner stream box by box.
std::vector<profile::BoxSize> perturb_per_box(
    profile::BoxSource& inner, const profile::PerturbSampler& sampler,
    util::Rng rng) {
  std::vector<profile::BoxSize> out;
  while (const auto box = inner.next()) {
    const double scaled =
        std::floor(static_cast<double>(*box) * sampler(rng));
    out.push_back(static_cast<profile::BoxSize>(std::max(1.0, scaled)));
  }
  return out;
}

// SizePerturbSource pulls native runs from its inner source but still
// draws one factor per inner box, in stream order: its next() and
// next_run() streams both equal per-box perturbation of the inner stream,
// whatever the inner run boundaries.
TEST(SourceRuns, SizePerturbRunPullingMatchesPerBoxPulling) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 4u);
  const std::vector<profile::BoxSize> boxes = worst_boxes(p, n);
  const std::vector<std::pair<std::string, profile::PerturbSampler>>
      samplers = {{"int4", profile::uniform_int_perturb(4)},
                  {"real2", profile::uniform_real_perturb(2.0)},
                  {"point3", profile::point_perturb(3.0)}};
  for (const auto& [name, sampler] : samplers) {
    profile::VectorSource plain(boxes);
    const std::vector<profile::BoxSize> want =
        perturb_per_box(plain, sampler, util::Rng(41));
    ASSERT_EQ(want.size(), boxes.size());
    for (const bool fragmented : {false, true}) {
      auto inner = [&]() -> std::unique_ptr<profile::BoxSource> {
        if (fragmented) return std::make_unique<FragmentingSource>(boxes, 5);
        return std::make_unique<profile::WorstCaseSource>(p.a, p.b, n);
      };
      const std::string label =
          name + (fragmented ? " fragmented" : " native");
      profile::SizePerturbSource by_box(inner(), sampler, util::Rng(41));
      EXPECT_EQ(profile::materialize(by_box), want) << label;
      profile::SizePerturbSource by_run(inner(), sampler, util::Rng(41));
      std::vector<profile::BoxSize> expanded;
      while (const auto run = by_run.next_run()) {
        expanded.insert(expanded.end(), run->count, run->size);
      }
      EXPECT_EQ(expanded, want) << label;
    }
  }
}

// RunCoalescingSource is the default adapter for sources with no native
// runs: its expansion must also be the identity.
TEST(SourceRuns, CoalescingAdapterPreservesStream) {
  const std::vector<profile::BoxSize> boxes = {4, 4, 4, 1, 1, 16, 16, 16, 16,
                                               2, 4, 4, 1};
  profile::RunCoalescingSource coalesced(
      std::make_unique<profile::VectorSource>(boxes));
  std::vector<profile::BoxSize> expanded;
  while (const auto run = coalesced.next_run()) {
    for (std::uint64_t i = 0; i < run->count; ++i) {
      expanded.push_back(run->size);
    }
  }
  EXPECT_EQ(expanded, boxes);
}

// ---- Batch path (docs/PERF.md, "Batch path") ------------------------------

struct BatchCase {
  std::string name;
  TrialSourceFactory make;
  bool batched;  // expected to take the batch path
};

// Theorem 1's smoothed profiles as the campaign builds them, plus every
// i.i.d. kind a manifest can name.
std::vector<BatchCase> batch_cases(const model::RegularParams& p,
                                   std::uint64_t n) {
  const unsigned k = util::ilog(n, p.b);
  auto iid = [](std::shared_ptr<const profile::BoxDistribution> dist) {
    return core::iid_source(std::move(dist));
  };
  return {
      {"perturb:2",
       core::size_perturb_source(p, n, profile::uniform_real_perturb(2.0)),
       true},
      {"perturb:4",
       core::size_perturb_source(p, n, profile::uniform_real_perturb(4.0)),
       true},
      {"perturb:8",
       core::size_perturb_source(p, n, profile::uniform_real_perturb(8.0)),
       true},
      {"shuffled", core::shuffled_census_source(p, n), true},
      {"shifted", core::cyclic_shift_source(p, n), false},
      {"iid:geometric",
       iid(std::make_shared<profile::GeometricPowers>(
           p.b, static_cast<double>(p.a), 0, k)),
       true},
      {"iid:uniform-powers",
       iid(std::make_shared<profile::UniformPowers>(p.b, 0, k)), true},
      {"iid:uniform-range", iid(std::make_shared<profile::UniformRange>(1, 64)),
       true},
      {"iid:bimodal", iid(std::make_shared<profile::Bimodal>(2, 1024, 0.03)),
       true},
      {"iid:point:16", iid(std::make_shared<profile::PointMass>(16)), false},
      {"iid:point:17", iid(std::make_shared<profile::PointMass>(17)), false},
  };
}

struct BatchShape {
  model::RegularParams params;
  unsigned k;
};

std::vector<BatchShape> batch_shapes() {
  return {{{8, 4, 1.0}, 4}, {{7, 4, 1.0}, 4}, {{4, 2, 1.0}, 6},
          {{3, 2, 1.0}, 7}};
}

RunResult run_case(const BatchShape& shape, const BatchCase& source_case,
                   std::uint64_t seed, BoxSemantics semantics,
                   ScanPlacement placement, RunOptions options) {
  const std::uint64_t n = util::ipow(shape.params.b, shape.k);
  util::Rng rng(seed);
  auto source = source_case.make(rng);
  return run_regular(shape.params, n, *source, placement,
                     /*adversary_seed=*/0, semantics, options);
}

// The batch path is bit-identical to the per-box reference loop on every
// smoothed profile, shape, semantics and placement, over several seeds —
// and the capability probes route exactly the short-run streams to it.
TEST(BatchDifferential, DefaultMatchesPerBoxOnSmoothedProfiles) {
  for (const BatchShape& shape : batch_shapes()) {
    const std::uint64_t n = util::ipow(shape.params.b, shape.k);
    for (const BatchCase& source_case : batch_cases(shape.params, n)) {
      util::Rng probe_rng(1);
      const auto probe = source_case.make(probe_rng);
      EXPECT_EQ(probe->provides_batches() && !probe->provides_blocks(),
                source_case.batched)
          << source_case.name;
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        for (const ScanPlacement placement :
             {ScanPlacement::kEnd, ScanPlacement::kInterleaved}) {
          for (const std::uint64_t seed : {1u, 2u, 3u}) {
            const std::string label =
                shape.params.name() + " " + source_case.name +
                " semantics=" + std::to_string(static_cast<int>(semantics)) +
                " placement=" + std::to_string(static_cast<int>(placement)) +
                " seed=" + std::to_string(seed);
            RunOptions ref_options;
            ref_options.per_box = true;
            const RunResult ref = run_case(shape, source_case, seed,
                                           semantics, placement, ref_options);
            EXPECT_TRUE(ref.completed) << label;
            expect_same_result(run_case(shape, source_case, seed, semantics,
                                        placement, RunOptions{}),
                               ref, label);
          }
        }
      }
    }
  }
}

// The first `count` boxes of a case's stream, as next() delivers them.
std::vector<profile::BoxSize> stream_prefix(const BatchCase& source_case,
                                            std::uint64_t seed,
                                            std::size_t count) {
  util::Rng rng(seed);
  auto source = source_case.make(rng);
  std::vector<profile::BoxSize> out;
  while (out.size() < count) out.push_back(*source->next());
  return out;
}

// A max_boxes cap stops the batch path on the same box as the reference
// loop, wherever it lands: on batch boundaries and either side of them,
// and inside stretches long enough to go through consume_run.
TEST(BatchDifferential, CapsLandMidBatchAndMidStretch) {
  for (const BatchShape& shape : batch_shapes()) {
    const std::uint64_t n = util::ipow(shape.params.b, shape.k);
    for (const BatchCase& source_case : batch_cases(shape.params, n)) {
      if (!source_case.batched) continue;
      const std::uint64_t seed = 11;
      std::vector<std::uint64_t> caps = {1,   2,   3,   4,   255, 256,
                                         257, 511, 512, 513, 700};
      // Caps one, two and three boxes into the first few stretches of
      // four or more equal boxes.
      const std::vector<profile::BoxSize> prefix =
          stream_prefix(source_case, seed, 1500);
      int stretches = 0;
      for (std::size_t i = 0; i + 4 <= prefix.size() && stretches < 4;) {
        std::size_t j = i + 1;
        while (j < prefix.size() && prefix[j] == prefix[i]) ++j;
        if (j - i >= 4) {
          for (std::uint64_t d = 1; d <= 3; ++d) caps.push_back(i + d);
          ++stretches;
        }
        i = j;
      }
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        for (const std::uint64_t cap : caps) {
          const std::string label = shape.params.name() + " " +
                                    source_case.name + " cap=" +
                                    std::to_string(cap) + " semantics=" +
                                    std::to_string(static_cast<int>(semantics));
          RunOptions options;
          options.max_boxes = cap;
          RunOptions ref_options = options;
          ref_options.per_box = true;
          const RunResult ref = run_case(shape, source_case, seed, semantics,
                                         ScanPlacement::kEnd, ref_options);
          const RunResult got = run_case(shape, source_case, seed, semantics,
                                         ScanPlacement::kEnd, options);
          expect_same_result(got, ref, label);
          if (!ref.completed) {
            EXPECT_EQ(got.stop, StopReason::kBoxCapHit) << label;
            EXPECT_EQ(got.boxes, cap) << label;
          }
        }
      }
    }
  }
}

// An aggregating (kRuns) recorder rides the batch path: the boxes,
// progress and scan advance summed over its emitted box/runs/bulk events
// equal its aggregates, which equal per-box recording's counters and
// satisfy conservation.
TEST(BatchRecorder, AggregatingRecorderEventSumsEqualAggregates) {
  for (const BatchShape& shape : batch_shapes()) {
    const std::uint64_t n = util::ipow(shape.params.b, shape.k);
    for (const BatchCase& source_case : batch_cases(shape.params, n)) {
      if (!source_case.batched) continue;
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        const std::string label =
            shape.params.name() + " " + source_case.name + " semantics=" +
            std::to_string(static_cast<int>(semantics));
        obs::MemorySink sink;
        obs::ExecRecorder runs_rec(&sink, obs::BoxGranularity::kRuns);
        RunOptions options;
        options.recorder = &runs_rec;
        const RunResult got = run_case(shape, source_case, 5, semantics,
                                       ScanPlacement::kEnd, options);
        obs::ExecRecorder box_rec(nullptr);
        RunOptions box_options;
        box_options.recorder = &box_rec;
        box_options.per_box = true;
        const RunResult ref = run_case(shape, source_case, 5, semantics,
                                       ScanPlacement::kEnd, box_options);
        expect_same_result(got, ref, label);
        expect_same_counters(runs_rec, box_rec, label);

        std::uint64_t boxes = 0, progress = 0, scan = 0;
        for (const obs::Event& e : sink.events()) {
          if (e.type == "box") {
            boxes += 1;
          } else if (e.type == "runs") {
            boxes += e.u64_or("count", 0);
          } else if (e.type == "bulk") {
            boxes += e.u64_or("boxes", 0);
          } else {
            continue;
          }
          progress += e.u64_or("progress", 0);
          scan += e.u64_or("scan", 0);
        }
        EXPECT_EQ(boxes, runs_rec.boxes()) << label;
        EXPECT_EQ(progress, runs_rec.total_progress()) << label;
        EXPECT_EQ(scan, runs_rec.total_scan_advance()) << label;
        EXPECT_EQ(runs_rec.boxes(), got.boxes) << label;
        EXPECT_EQ(runs_rec.total_progress(), got.leaves) << label;
        EXPECT_EQ(progress + scan, model::problem_units(shape.params, n))
            << label;
      }
    }
  }
}

// Drains `batched` through next_batch in chunks of random sizes (mixing
// in single next() calls) and `plain` through next(), and checks the two
// streams agree box for box for `count` boxes or until both exhaust.
void expect_batches_reproduce_next(profile::BoxSource& batched,
                                   profile::BoxSource& plain,
                                   std::size_t count, std::uint64_t seed,
                                   const std::string& label) {
  util::Rng rng(seed);
  std::vector<profile::BoxSize> buffer(300);
  std::size_t compared = 0;
  while (compared < count) {
    std::size_t got = 0;
    if (rng.bernoulli(0.2)) {
      const auto box = batched.next();
      if (box) buffer[got++] = *box;
    } else {
      const std::size_t want = 1 + rng.below(buffer.size());
      got = batched.next_batch(std::span(buffer.data(), want));
      ASSERT_LE(got, want) << label;
    }
    if (got == 0) {
      EXPECT_EQ(plain.next(), std::nullopt) << label << " at " << compared;
      return;
    }
    for (std::size_t i = 0; i < got; ++i, ++compared) {
      const auto box = plain.next();
      ASSERT_TRUE(box.has_value()) << label << " at " << compared;
      ASSERT_EQ(buffer[i], *box) << label << " at " << compared;
    }
  }
}

// Stream identity at the source layer: concatenated next_batch() results
// (interleaved with next()) reproduce the next() stream of a twin.
TEST(SourceBatches, NextBatchReproducesNextStream) {
  const model::RegularParams p{8, 4, 1.0};
  // SizePerturbSource inside CyclingSource: n = 16 wraps every few dozen
  // boxes, so batches end at, and restart after, many wraps.
  for (const double t : {2.0, 4.0, 8.0}) {
    for (const std::uint64_t n : {16u, 256u}) {
      const auto factory =
          core::size_perturb_source(p, n, profile::uniform_real_perturb(t));
      util::Rng rng_a(9), rng_b(9);
      auto batched = factory(rng_a);
      auto plain = factory(rng_b);
      EXPECT_TRUE(batched->provides_batches());
      expect_batches_reproduce_next(*batched, *plain, 20000, 3,
                                    "perturb n=" + std::to_string(n));
    }
  }
  // A finite perturbed stream ends with a short batch, then 0.
  for (const auto& sampler :
       {profile::uniform_int_perturb(3), profile::point_perturb(2.0)}) {
    profile::SizePerturbSource batched(
        std::make_unique<profile::WorstCaseSource>(8, 4, 64), sampler,
        util::Rng(4));
    profile::SizePerturbSource plain(
        std::make_unique<profile::WorstCaseSource>(8, 4, 64), sampler,
        util::Rng(4));
    expect_batches_reproduce_next(batched, plain, 1u << 20, 5, "finite");
    std::array<profile::BoxSize, 4> tail{};
    EXPECT_EQ(batched.next_batch(tail), 0u);
  }
  // DistributionSource after next_run() left a looked-ahead box pending.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const profile::GeometricPowers dist(4, 8.0, 0, 3);
    profile::DistributionSource batched(dist, util::Rng(seed));
    profile::DistributionSource plain(dist, util::Rng(seed));
    EXPECT_TRUE(batched.provides_batches());
    const auto run_a = batched.next_run();
    const auto run_b = plain.next_run();
    ASSERT_TRUE(run_a && run_b);
    EXPECT_EQ(run_a->size, run_b->size);
    EXPECT_EQ(run_a->count, run_b->count);
    expect_batches_reproduce_next(batched, plain, 5000, seed, "iid pending");
  }
  // A point mass: batches work, but the source keeps its long runs.
  {
    const profile::PointMass dist(16);
    profile::DistributionSource batched(dist, util::Rng(7));
    profile::DistributionSource plain(dist, util::Rng(7));
    EXPECT_FALSE(batched.provides_batches());
    expect_batches_reproduce_next(batched, plain, 2000, 7, "point");
  }
  // The default implementation loops next(), through exhaustion.
  {
    std::vector<profile::BoxSize> boxes(777);
    util::Rng rng(8);
    for (profile::BoxSize& s : boxes) s = 1 + rng.below(5);
    profile::VectorSource batched(boxes);
    profile::VectorSource plain(boxes);
    EXPECT_FALSE(batched.provides_batches());
    expect_batches_reproduce_next(batched, plain, 1u << 20, 8, "default");
    std::array<profile::BoxSize, 4> tail{};
    EXPECT_EQ(batched.next_batch(tail), 0u);
  }
}

}  // namespace
}  // namespace cadapt::engine
