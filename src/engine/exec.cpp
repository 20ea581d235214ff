#include "engine/exec.hpp"

#include <algorithm>
#include <array>

#include "obs/recorder.hpp"
#include "profile/worst_case.hpp"
#include "robust/cancel.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt::engine {

RegularExecution::RegularExecution(const model::RegularParams& params,
                                   std::uint64_t n, ScanPlacement placement,
                                   std::uint64_t adversary_seed,
                                   BoxSemantics semantics)
    : params_(params), n_(n), placement_(placement),
      adversary_seed_(adversary_seed), semantics_(semantics) {
  params_.validate();
  CADAPT_CHECK_MSG(util::is_power_of(n, params_.b),
                   "problem size must be a power of b; n=" << n);
  total_leaves_ = params_.leaves(n);  // checks a^levels fits 64 bits
  root_ = util::ilog(n, params_.b);
  // U(b^0) = 1; U(b^k) = a·U(b^{k-1}) + scan_size(b^k).
  levels_.assign(root_ + 1, Level{});
  units_by_level_.assign(root_ + 1, 1);
  levels_[0] = {1, 0, 1, params_.scan_size(1), 0, 0, 0, 0};
  for (unsigned k = 1; k <= root_; ++k) {
    Level& below = levels_[k - 1];
    Level& row = levels_[k];
    row.size = below.size * params_.b;
    below.last = row.size - 1;
    row.scan = params_.scan_size(row.size);
    row.leaves = params_.a * below.leaves;
    units_by_level_[k] = params_.a * units_by_level_[k - 1] + row.scan;
  }
  levels_[root_].last = UINT64_MAX;
  // level_of reads widths of boxes below n only; one pass up the rows
  // fills them (a trial can be a few hundred boxes, so this stays cheap).
  unsigned level = 0;
  for (unsigned w = 1; w <= std::bit_width(n_ - 1); ++w) {
    const std::uint64_t low = std::uint64_t{1} << (w - 1);
    while (level < root_ && levels_[level + 1].size <= low) ++level;
    level_by_width_[w] = static_cast<std::uint8_t>(level);
  }
  top_ = root_;
  levels_[root_].node_hash =
      profile::OrderPerturbedWorstCaseSource::root_hash(adversary_seed_);
  normalize();
  CADAPT_CHECK(!done());  // a fresh problem always has work
}

std::uint64_t RegularExecution::units_done() const {
  if (done()) return total_units();
  std::uint64_t total = 0;
  // A pending base case (level 0) contributes nothing.
  for (unsigned l = root_; l >= top_ && l >= 1; --l) {
    const Level& f = levels_[l];
    total += completed_children(f) * units_by_level_[l - 1];
    const std::uint64_t chunks_complete = f.phase / 2;
    for (std::uint64_t j = 0; j < chunks_complete; ++j)
      total += chunk_size(l, j);
    if (f.phase % 2 == 1) total += f.scan_offset;
  }
  return total;
}

std::uint64_t RegularExecution::chunk_size(unsigned level,
                                           std::uint64_t chunk) const {
  const Level& f = levels_[level];
  const std::uint64_t a = params_.a;
  CADAPT_CHECK(chunk < a);
  switch (placement_) {
    case ScanPlacement::kEnd:
      return chunk + 1 == a ? f.scan : 0;
    case ScanPlacement::kAdversaryMatched: {
      // The whole scan goes right after child own_after (1-based); chunk
      // i follows child i+1, so the scan lands in chunk own_after - 1.
      const std::uint64_t after = profile::OrderPerturbedWorstCaseSource::
          own_after(f.node_hash, a);
      return chunk + 1 == after ? f.scan : 0;
    }
    case ScanPlacement::kInterleaved:
      break;
  }
  // kInterleaved: distribute as evenly as possible; earlier chunks take
  // the remainder.
  const std::uint64_t base = f.scan / a;
  const std::uint64_t extra = chunk < f.scan % a ? 1 : 0;
  return base + extra;
}

// descend, retire_up, normalize_end and complete_frame make up the
// optimistic kEnd step, the one Theorem 1's random streams take per box:
// inlined into it, a box that completes a leaf runs without a call.
[[gnu::always_inline]] inline void RegularExecution::descend() {
  // Path hashes only steer kAdversaryMatched; every other placement
  // leaves them 0 and skips the per-descent hash.
  const bool hashed = placement_ == ScanPlacement::kAdversaryMatched;
  std::uint64_t child = levels_[top_].phase / 2;
  for (unsigned l = top_; l > 0; --l) {
    Level& f = levels_[l - 1];
    f.phase = 0;
    f.scan_offset = 0;
    f.start_leaves = leaves_done_;
    f.node_hash = hashed ? util::hash_combine(levels_[l].node_hash, child) : 0;
    child = 0;
  }
  top_ = 0;
}

std::uint64_t RegularExecution::normalize_general() {
  const std::uint64_t a = params_.a;
  std::uint64_t largest_retired = 0;
  while (top_ > 0 && top_ <= root_) {  // stop at a pending base case
    Level& f = levels_[top_];
    if (f.phase % 2 == 0) {
      descend();
      break;
    }
    // Odd phase: scan chunk (phase - 1) / 2.
    if (f.scan_offset < chunk_size(top_, (f.phase - 1) / 2)) break;
    f.phase += 1;
    f.scan_offset = 0;
    if (f.phase == 2 * a) {
      // Sizes grow upward, so the latest retired problem is the largest.
      largest_retired = f.size;
      if (++top_ <= root_) {
        // The parent's current (even) child phase just completed.
        levels_[top_].phase += 1;
        levels_[top_].scan_offset = 0;
      }
    }
  }
  return largest_retired;
}

[[gnu::always_inline]] inline std::uint64_t RegularExecution::retire_up(
    unsigned level, std::uint64_t largest) {
  if (placement_ != ScanPlacement::kEnd) {
    top_ = level;
    if (top_ > root_) return largest;
    // The parent's current (even) child phase just completed; completing
    // its last child with no (remaining) scan may cascade upward.
    levels_[top_].phase += 1;
    levels_[top_].scan_offset = 0;
    return std::max(largest, normalize_general());
  }
  // kEnd: the finished child's chunk is empty unless it was the last
  // child, so the parent either moves straight on to its next child or
  // rests in its scan; a parent with no scan retires in turn.
  const std::uint64_t last = 2 * params_.a - 1;
  for (; level <= root_; ++level) {
    Level& f = levels_[level];
    f.scan_offset = 0;
    if (++f.phase != last) {
      ++f.phase;
      top_ = level;
      descend();
      return largest;
    }
    if (f.scan > 0) break;
    // Sizes grow upward, so the latest retired problem is the largest.
    largest = f.size;
  }
  top_ = level;
  return largest;
}

[[gnu::always_inline]] inline std::uint64_t
RegularExecution::normalize_end() {
  if (done() || top_ == 0) return 0;  // a pending base case is at rest
  Level& f = levels_[top_];
  if (f.phase % 2 == 1) {
    // Only the last chunk, in phase 2a - 1, holds scan.
    if (f.phase == 2 * params_.a - 1) {
      if (f.scan_offset < f.scan) return 0;
      return retire_up(top_ + 1, f.size);
    }
    f.phase += 1;  // empty chunk: straight on to the next child
  }
  descend();
  return 0;
}

std::uint64_t RegularExecution::normalize() {
  return placement_ == ScanPlacement::kEnd ? normalize_end()
                                           : normalize_general();
}

[[gnu::always_inline]] inline std::uint64_t RegularExecution::complete_frame(
    unsigned level, std::uint64_t& progress) {
  const Level& f = levels_[level];
  const std::uint64_t reached = f.start_leaves + f.leaves;
  progress += reached - leaves_done_;
  leaves_done_ = reached;
  return retire_up(level + 1, f.size);
}

[[gnu::cold, gnu::noinline]] void RegularExecution::reject_box(
    profile::BoxSize s, unsigned level) const {
  CADAPT_CHECK_MSG(s >= 1, "box size must be >= 1");
  CADAPT_CHECK_MSG(!done(), "consume_box on a finished execution");
  CADAPT_CHECK_MSG(level == level_of(s),
                   "box level " << level << " is not floor(log_b min(n, "
                                << s << "))");
  CADAPT_CHECK(false);  // unreachable: some check above fails
}

[[gnu::always_inline]] inline BoxReport RegularExecution::step(
    profile::BoxSize s, unsigned level) {
  // One test on the hot path; reject_box, out of line, says which failed.
  if (s == 0 || done()) [[unlikely]] reject_box(s, level);
  ++boxes_consumed_;
  // Disabled path (no recorder): one predictable never-taken branch, then
  // the same dispatch as the uninstrumented engine — guarded by
  // bench_microbench's BM_EngineUnitBoxes.
  if (recorder_ != nullptr) [[unlikely]] return consume_box_recorded(s, level);
  return semantics_ == BoxSemantics::kOptimistic
             ? consume_box_optimistic(s, level)
             : consume_box_budgeted(s);
}

BoxReport RegularExecution::consume_box(profile::BoxSize s) {
  return step(s, level_of(s));
}

BoxReport RegularExecution::consume_box(profile::BoxSize s, unsigned level) {
  // The level's own row bounds its boxes: no second lookup.
  if (level > root_ || s < levels_[level].size || s > levels_[level].last)
      [[unlikely]]
    reject_box(s, level);
  return step(s, level);
}

[[gnu::cold, gnu::noinline]] BoxReport RegularExecution::consume_box_recorded(
    profile::BoxSize s, unsigned level) {
  // Classify the branch before consuming: frame sizes strictly decrease
  // with depth, so the box jump-completes iff the deepest frame — the
  // smallest enclosing problem — has size <= s.
  const obs::ExecBranch branch =
      semantics_ == BoxSemantics::kBudgeted ? obs::ExecBranch::kBudgeted
      : levels_[top_].size <= s             ? obs::ExecBranch::kCompleteJump
                                            : obs::ExecBranch::kScanAdvance;
  // Per-box scan advance is the delta of the identity
  // scan position = units_done() - leaves_done() around the box; the two
  // O(depth) units_done() walks are paid only here, on the recording path.
  const std::uint64_t scan_before = units_done() - leaves_done_;
  const BoxReport report = semantics_ == BoxSemantics::kOptimistic
                               ? consume_box_optimistic(s, level)
                               : consume_box_budgeted(s);
  recorder_->on_box({boxes_consumed_ - 1, s, report.progress,
                     units_done() - leaves_done_ - scan_before,
                     report.completed_problem, branch});
  return report;
}

[[gnu::always_inline]] inline BoxReport
RegularExecution::consume_box_optimistic(profile::BoxSize s, unsigned level) {
  BoxReport report;
  // Frame sizes strictly decrease with depth, so the open frames of size
  // <= s are the levels top_..level, and the topmost is at `level`.
  if (top_ <= level) {
    // The box begins inside that problem of size <= s: it completes the
    // problem in full and goes no further (§4 semantics).
    report.completed_problem = complete_frame(level, report.progress);
    return report;
  }

  // Every enclosing problem is larger than s, so the current position is
  // inside a scan (a pending base case has size 1 <= s and would have been
  // caught above).
  Level& f = levels_[top_];
  CADAPT_CHECK(f.phase % 2 == 1);
  // kEnd rests only in the last chunk, which holds the whole scan.
  const std::uint64_t chunk = placement_ == ScanPlacement::kEnd
                                  ? f.scan
                                  : chunk_size(top_, (f.phase - 1) / 2);
  CADAPT_CHECK(f.scan_offset < chunk);
  if (s < chunk - f.scan_offset) {
    f.scan_offset += s;
    return report;
  }
  // Finishing the chunk may retire the problem (and possibly its
  // ancestors); report the largest problem retired.
  f.scan_offset = chunk;
  report.completed_problem = normalize();
  return report;
}

BoxReport RegularExecution::consume_box_budgeted(profile::BoxSize s) {
  BoxReport report;
  std::uint64_t budget = s;
  while (budget > 0 && !done()) {
    Level& f = levels_[top_];
    if (f.phase % 2 == 1) {
      // In a scan: each scan access loads one (fresh) block.
      const std::uint64_t chunk = chunk_size(top_, (f.phase - 1) / 2);
      CADAPT_CHECK(f.scan_offset < chunk);
      const std::uint64_t advance =
          std::min<std::uint64_t>(budget, chunk - f.scan_offset);
      f.scan_offset += advance;
      budget -= advance;
      report.completed_problem =
          std::max(report.completed_problem, normalize());
      continue;
    }
    // Pending base case. The position is at the *start* of every ancestor
    // frame reachable upward through phase-0 frames; completing one of
    // them wholesale costs its size in block loads. Take the largest that
    // fits in the remaining budget.
    CADAPT_CHECK(top_ == 0);
    unsigned l = 0;  // the leaf frame itself
    while (l < root_ && levels_[l + 1].phase == 0 &&
           levels_[l + 1].scan_offset == 0 && levels_[l + 1].size <= budget) {
      ++l;
    }
    CADAPT_CHECK(leaves_done_ == levels_[l].start_leaves);  // at start
    budget -= levels_[l].size;
    report.completed_problem = std::max(report.completed_problem,
                                        complete_frame(l, report.progress));
  }
  return report;
}

RunReport RegularExecution::consume_run(profile::BoxSize s,
                                        std::uint64_t count,
                                        const robust::CancelToken* cancel) {
  CADAPT_CHECK_MSG(count >= 1, "run count must be >= 1");
  CADAPT_CHECK_MSG(!done(), "consume_run on a finished execution");
  CADAPT_CHECK_MSG(s >= 1, "box size must be >= 1");
  const unsigned level = level_of(s);
  RunReport report;
  // A per-box recorder must observe every box: literal reference loop.
  if (recorder_ != nullptr && !recorder_->aggregates_runs()) {
    for (std::uint64_t i = 0; i < count && !done(); ++i) {
      if (cancel != nullptr) cancel->poll();
      const BoxReport r = consume_box(s, level);
      report.progress += r.progress;
      report.completed_problem =
          std::max(report.completed_problem, r.completed_problem);
    }
    return report;
  }
  std::uint64_t consumed = 0;
  // One failed probe means the run is not periodic from here on cheaply;
  // finish it per-box instead of re-probing (and re-copying the stack)
  // for every remaining box.
  bool probing = true;
  // Subtree retirement needs optimistic semantics and no recorder (its
  // per-size-class tallies would need every box of the subtree).
  const bool retiring =
      semantics_ == BoxSemantics::kOptimistic && recorder_ == nullptr;
  while (consumed < count && !done()) {
    if (cancel != nullptr) cancel->poll();
    // (0) Constant-stream subtree retirement: from the fresh start of a
    // problem larger than s, equal boxes complete it in a closed-form
    // count. Retire the largest fresh problem the rest of the run covers.
    if (retiring && count - consumed >= 2 && top_ == 0) {
      const std::uint64_t retired = retire_fresh(s, count - consumed, report);
      if (retired > 0) {
        consumed += retired;
        continue;
      }
    }
    // (1) Arithmetic in-scan stretch: the position is inside a scan chunk
    // and each box advances it by exactly s, strictly within the chunk —
    // q boxes collapse to one addition. (Optimistic boxes land in the
    // scan only when every enclosing problem is larger; budgeted boxes
    // always spend their budget from inside a pending scan.)
    {
      Level& f = levels_[top_];
      if (f.phase % 2 == 1 &&
          (semantics_ == BoxSemantics::kBudgeted || f.size > s)) {
        const std::uint64_t chunk = chunk_size(top_, (f.phase - 1) / 2);
        const std::uint64_t remaining = chunk - f.scan_offset;
        if (remaining > s) {
          const std::uint64_t q =
              std::min<std::uint64_t>(count - consumed, (remaining - 1) / s);
          if (q >= 1) {
            f.scan_offset += q * s;
            boxes_consumed_ += q;
            consumed += q;
            if (recorder_ != nullptr) {
              recorder_->on_run(
                  {boxes_consumed_ - q, s, q, 0, q * s, 0,
                   semantics_ == BoxSemantics::kBudgeted
                       ? obs::ExecBranch::kBudgeted
                       : obs::ExecBranch::kScanAdvance});
            }
            continue;
          }
        }
      }
    }
    // (2) One literal box, wrapped in a period probe: if the box left the
    // stack one certified periodic step ahead, the remaining equal boxes
    // replay in closed form (e.g. a run of size-b^j boxes each completing
    // one subtree of the same parent).
    const bool try_probe = probing && count - consumed >= 2 &&
                           placement_ != ScanPlacement::kAdversaryMatched;
    obs::ExecRecorder::Mark mark;
    if (try_probe) {
      signature_into(probe_sig_);
      if (recorder_ != nullptr) mark = recorder_->mark();
    }
    const std::uint64_t leaves_before = leaves_done_;
    const BoxReport r = consume_box(s, level);
    ++consumed;
    report.progress += r.progress;
    report.completed_problem =
        std::max(report.completed_problem, r.completed_problem);
    if (!try_probe) continue;
    if (done()) break;
    const auto delta = classify_period(probe_sig_, count - consumed);
    if (!delta) {
      probing = false;
      continue;
    }
    const std::uint64_t m = delta->max_repeats;
    const std::uint64_t leaves_per_repeat = leaves_done_ - leaves_before;
    apply_period(*delta, m, /*boxes_per_repeat=*/1, leaves_per_repeat);
    report.progress += m * leaves_per_repeat;
    consumed += m;
    if (recorder_ != nullptr) recorder_->replay(mark, m);
  }
  return report;
}

std::uint64_t RegularExecution::retire_fresh(profile::BoxSize s,
                                             std::uint64_t budget,
                                             RunReport& report) {
  // Walk up from the pending leaf while the position is still the start of
  // each enclosing problem (the frame above is in its child 0). A problem
  // of size <= s is one box; above that, B(j) = a·B(j-1) + scan boxes(j).
  unsigned best = root_ + 1;
  std::uint64_t best_boxes = 0;
  std::uint64_t boxes = 1;
  for (unsigned l = 0;; ++l) {
    if (levels_[l].size > s) {
      boxes = params_.a * boxes + scan_boxes(l, s);
      if (boxes > budget) break;
      best = l;
      best_boxes = boxes;
    }
    if (l == root_ || levels_[l + 1].phase != 0) break;
  }
  if (best > root_) return 0;
  boxes_consumed_ += best_boxes;
  // The subtree's last box ends exactly at its end; retiring it may
  // cascade, as it does after that literal box.
  report.completed_problem = std::max(report.completed_problem,
                                      complete_frame(best, report.progress));
  return best_boxes;
}

std::uint64_t RegularExecution::scan_boxes(unsigned level,
                                           profile::BoxSize s) const {
  // Each box advances min(s, rest of its chunk): a chunk of L blocks takes
  // ceil(L / s) boxes and an empty one none. Only kInterleaved splits the
  // scan; the other placements put it in one chunk, wherever it sits.
  const std::uint64_t scan = levels_[level].scan;
  auto ceil_div = [s](std::uint64_t len) { return (len + s - 1) / s; };
  if (placement_ != ScanPlacement::kInterleaved) return ceil_div(scan);
  const std::uint64_t a = params_.a;
  const std::uint64_t base = scan / a;
  const std::uint64_t extra = scan % a;
  return extra * ceil_div(base + 1) + (a - extra) * ceil_div(base);
}

StackSignature RegularExecution::signature() const {
  StackSignature sig;
  signature_into(sig);
  return sig;
}

void RegularExecution::signature_into(StackSignature& out) const {
  out.clear();
  if (done()) return;
  out.reserve(root_ - top_ + 1);
  for (unsigned l = root_ + 1; l-- > top_;) {
    const Level& f = levels_[l];
    out.push_back({f.size, f.phase, f.scan_offset});
  }
}

std::optional<PeriodicDelta> RegularExecution::classify_period(
    const StackSignature& before, std::uint64_t want) const {
  if (want == 0) return std::nullopt;
  // Node hashes are excluded from signatures; under kAdversaryMatched
  // they choose chunk placements, so nothing is certifiable there.
  if (placement_ == ScanPlacement::kAdversaryMatched) return std::nullopt;
  if (done() || root_ - top_ + 1 != before.size()) return std::nullopt;
  const std::size_t len = before.size();
  // Exactly one frame may have moved; sizes must agree everywhere (the
  // frames deeper than the moved one are the recreated descent into the
  // next child — identical triples mean identical future behavior, since
  // chunk sizes depend only on (size, placement) here). Stack index i is
  // level root_ - i.
  std::size_t p = len;
  for (std::size_t i = 0; i < len; ++i) {
    const Level& f = levels_[root_ - i];
    if (f.size != before[i][0]) return std::nullopt;
    if (f.phase != before[i][1] || f.scan_offset != before[i][2]) {
      if (p != len) return std::nullopt;
      p = i;
    }
  }
  if (p == len) return std::nullopt;  // nothing visibly moved
  const unsigned level = root_ - static_cast<unsigned>(p);
  const Level& f = levels_[level];
  const std::uint64_t phase0 = before[p][1];
  const std::uint64_t off0 = before[p][2];
  PeriodicDelta delta;
  delta.frame = p;
  if (f.phase == phase0) {
    // Same odd phase, offset advanced: in-chunk scan periodicity. Only
    // certifiable when p is the deepest frame (no suffix to re-create).
    if (p + 1 != len || f.phase % 2 != 1) return std::nullopt;
    if (f.scan_offset <= off0) return std::nullopt;
    delta.doffset = f.scan_offset - off0;
    const std::uint64_t chunk = chunk_size(level, (f.phase - 1) / 2);
    CADAPT_CHECK(f.scan_offset < chunk);  // normalized resting state
    // Stay strictly inside the chunk so every replayed state is exactly
    // the normalized state literal execution would rest in.
    delta.max_repeats = std::min<std::uint64_t>(
        want, (chunk - 1 - f.scan_offset) / delta.doffset);
  } else {
    // Phase advanced by whole children: repeated subtree completions.
    if (f.phase < phase0 || phase0 % 2 != 0 || f.phase % 2 != 0)
      return std::nullopt;
    if (off0 != 0 || f.scan_offset != 0) return std::nullopt;
    delta.dphase = f.phase - phase0;
    const std::uint64_t a = params_.a;
    const std::uint64_t di = delta.dphase / 2;
    const std::uint64_t i0 = phase0 / 2;
    const std::uint64_t i1 = f.phase / 2;
    // Each further repeat r traverses scan chunks i1+(r-1)·di .. and must
    // see the same chunk sizes the probed repeat saw at i0 .., and must
    // end still "about to descend a child" (phase < 2a) so the stack
    // shape is preserved.
    std::uint64_t m = 0;
    while (m < want) {
      const std::uint64_t r = m + 1;
      if (i1 + r * di > a - 1) break;
      bool same = true;
      for (std::uint64_t j = 0; j < di && same; ++j) {
        same = chunk_size(level, i1 + (r - 1) * di + j) ==
               chunk_size(level, i0 + j);
      }
      if (!same) break;
      m = r;
    }
    delta.max_repeats = m;
  }
  if (delta.max_repeats == 0) return std::nullopt;
  return delta;
}

void RegularExecution::apply_period(const PeriodicDelta& delta, std::uint64_t m,
                                    std::uint64_t boxes_per_repeat,
                                    std::uint64_t leaves_per_repeat) {
  CADAPT_CHECK(m >= 1 && m <= delta.max_repeats);
  CADAPT_CHECK(!done() && delta.frame <= root_ - top_);
  const unsigned level = root_ - static_cast<unsigned>(delta.frame);
  Level& f = levels_[level];
  f.phase += m * delta.dphase;
  f.scan_offset += m * delta.doffset;
  const std::uint64_t leaves = m * leaves_per_repeat;
  leaves_done_ += leaves;
  // The deeper frames are the same positions in a later child: each began
  // `leaves` base cases later than its counterpart in the probed repeat.
  for (unsigned l = top_; l < level; ++l) levels_[l].start_leaves += leaves;
  boxes_consumed_ += m * boxes_per_repeat;
}

namespace {

/// In-flight block probe of the bulk driver (docs/PERF.md): opened at a
/// source repeat boundary, closed when the execution reaches the end of
/// the first repeat — at which point the remaining repeats may be retired
/// in closed form (engine state via apply_period, source position via
/// skip_repeats, potential sums via exact replay, recorder via replay).
struct BlockProbe {
  StackSignature sig;
  std::uint64_t target = 0;        ///< boxes_consumed() ending the repeat
  std::uint64_t boxes_per_repeat = 0;
  std::uint64_t repeats_left = 0;  ///< repeats after the probed one
  std::uint64_t leaves_before = 0;
  model::AdaptivityAccumulator::Mark acc_before;
  obs::ExecRecorder::Mark mark;
};

}  // namespace

RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            const RunOptions& options) {
  obs::ExecRecorder* recorder = options.recorder;
  if (recorder != nullptr) exec.set_recorder(recorder);
  const robust::CancelToken* cancel = options.cancel;
  model::AdaptivityAccumulator acc(exec.params(), exec.problem_size());
  RunResult result;
  const std::uint64_t max_boxes = options.max_boxes;
  // The bulk path is disabled by the per_box flag and by a per-box-trace
  // recorder; either way the loop below is the seed driver, byte for byte.
  const bool bulk = !options.per_box &&
                    (recorder == nullptr || recorder->aggregates_runs());
  if (!bulk) {
    while (!exec.done()) {
      if (cancel != nullptr) cancel->poll();
      if (exec.boxes_consumed() >= max_boxes) {
        result.stop = StopReason::kBoxCapHit;
        break;
      }
      const auto box = source.next();
      if (!box) {  // finite profile exhausted before completion
        result.stop = StopReason::kSourceExhausted;
        break;
      }
      acc.add_box(*box);
      exec.consume_box(*box);
    }
  } else if (source.provides_batches() && !source.provides_blocks()) {
    // Batch path (docs/PERF.md, "Batch path"): the stream's runs are too
    // short to pay for a virtual next_run(), a lookahead compare and a
    // failed period probe each, so it arrives kBatchBoxes at a time and
    // goes box by box, exactly as the reference loop feeds it. One lookup
    // per box feeds both the potential sums and the engine's level-taking
    // step.
    constexpr std::size_t kBatchBoxes = 256;
    std::array<profile::BoxSize, kBatchBoxes> batch;
    while (!exec.done()) {
      if (cancel != nullptr) cancel->poll();
      if (exec.boxes_consumed() >= max_boxes) {
        result.stop = StopReason::kBoxCapHit;
        break;
      }
      const std::size_t filled = source.next_batch(batch);
      if (filled == 0) {
        result.stop = StopReason::kSourceExhausted;
        break;
      }
      // Every box delivered is consumed until the execution completes, so
      // the cap is a bound on the batch position: a capped trial stops on
      // the same box as the reference loop.
      const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(
          filled, max_boxes - exec.boxes_consumed()));
      for (std::size_t i = 0; i < len && !exec.done(); ++i) {
        const model::BoundedPotentials::Entry e = acc.lookup(batch[i]);
        acc.add(e);
        // The entry's level is util::ilog(min(n, s), b), level_of(s) by
        // definition (LevelState.* holds the two equal).
        exec.step(batch[i], e.level);
      }
    }
  } else {
    std::vector<BlockProbe> probes;
    const bool blocks = source.provides_blocks();
    while (!exec.done()) {
      // Per-run, not per-box: the bulk path retires millions of boxes per
      // iteration, so this is the bounded-interval poll point.
      if (cancel != nullptr) cancel->poll();
      if (exec.boxes_consumed() >= max_boxes) {
        result.stop = StopReason::kBoxCapHit;
        break;
      }
      // Open a probe at every block boundary the stream sits on: the
      // announced block, then (stepping in with enter_repeat) the block
      // nested at the start of its first repeat, and so on down. No box is
      // consumed in between, so the nested probes share one start
      // signature; each closes at its own target below.
      while (blocks) {
        const auto blk = source.peek_block();
        // One-box repeats gain nothing over runs.
        if (!blk || blk->boxes_per_repeat < 2) break;
        // A repeat that cannot finish under the cap can never be replayed.
        if (blk->repeats >= 2 &&
            exec.boxes_consumed() + blk->boxes_per_repeat <= max_boxes) {
          BlockProbe probe;
          probe.sig = exec.signature();
          probe.target = exec.boxes_consumed() + blk->boxes_per_repeat;
          probe.boxes_per_repeat = blk->boxes_per_repeat;
          probe.repeats_left = blk->repeats - 1;
          probe.leaves_before = exec.leaves_done();
          probe.acc_before = acc.mark();
          if (recorder != nullptr) probe.mark = recorder->mark();
          probes.push_back(std::move(probe));
        }
        if (!source.enter_repeat()) break;
      }
      const auto run = source.next_run();
      if (!run) {
        result.stop = StopReason::kSourceExhausted;
        break;
      }
      const std::uint64_t take = std::min<std::uint64_t>(
          run->count, max_boxes - exec.boxes_consumed());
      const std::uint64_t before_boxes = exec.boxes_consumed();
      exec.consume_run(run->size, take, cancel);
      // Only the boxes actually consumed are charged (the run may end
      // early when the execution completes) — same count, same values,
      // same addition sequence as the per-box loop.
      const std::uint64_t used = exec.boxes_consumed() - before_boxes;
      acc.add_boxes(run->size, used);
      // Close every probe whose first repeat just ended.
      while (!probes.empty() &&
             exec.boxes_consumed() >= probes.back().target) {
        const BlockProbe probe = std::move(probes.back());
        probes.pop_back();
        // Overshot the boundary (a run straddled it) or finished: the
        // probe cannot certify anything — drop it, keep consuming.
        if (exec.boxes_consumed() != probe.target || exec.done()) continue;
        // Defensive re-peek: the source must still be at a boundary of
        // the same block, one repeat in.
        const auto cur = source.peek_block();
        if (!cur || cur->boxes_per_repeat != probe.boxes_per_repeat ||
            cur->repeats < 1) {
          continue;
        }
        const auto delta = exec.classify_period(
            probe.sig, std::min(probe.repeats_left, cur->repeats));
        if (!delta) continue;
        const std::uint64_t m = std::min(
            delta->max_repeats,
            (max_boxes - exec.boxes_consumed()) / probe.boxes_per_repeat);
        if (m == 0) continue;
        // Commit only if BOTH potential sums replay exactly (all-integer
        // window below 2^53); otherwise fall back to literal consumption.
        if (!acc.replayable(probe.acc_before, m)) continue;
        source.skip_repeats(m);
        exec.apply_period(*delta, m, probe.boxes_per_repeat,
                          exec.leaves_done() - probe.leaves_before);
        acc.apply_replay(probe.acc_before, m);
        if (recorder != nullptr) recorder->replay(probe.mark, m);
      }
    }
  }
  result.completed = exec.done();
  if (result.completed) result.stop = StopReason::kCompleted;
  result.boxes = exec.boxes_consumed();
  result.leaves = exec.leaves_done();
  result.sum_bounded_potential = acc.sum_bounded_potential();
  result.ratio = acc.ratio();
  result.unit_ratio = acc.unit_ratio();
  if (recorder != nullptr) recorder->finish(result.completed);
  return result;
}

RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            std::uint64_t max_boxes,
                            obs::ExecRecorder* recorder) {
  RunOptions options;
  options.max_boxes = max_boxes;
  options.recorder = recorder;
  return run_to_completion(exec, source, options);
}

RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source, ScanPlacement placement,
                      std::uint64_t max_boxes, std::uint64_t adversary_seed,
                      BoxSemantics semantics, obs::ExecRecorder* recorder) {
  RegularExecution exec(params, n, placement, adversary_seed, semantics);
  return run_to_completion(exec, source, max_boxes, recorder);
}

RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source, ScanPlacement placement,
                      std::uint64_t adversary_seed, BoxSemantics semantics,
                      const RunOptions& options) {
  RegularExecution exec(params, n, placement, adversary_seed, semantics);
  return run_to_completion(exec, source, options);
}

}  // namespace cadapt::engine
