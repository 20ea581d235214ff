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
  // U(b^0) = 1; U(b^k) = a·U(b^{k-1}) + scan_size(b^k).
  const unsigned levels = util::ilog(n, params_.b);
  units_by_level_.resize(levels + 1);
  leaves_by_level_.resize(levels + 1);
  scan_by_level_.resize(levels + 1);
  units_by_level_[0] = 1;
  leaves_by_level_[0] = 1;
  scan_by_level_[0] = params_.scan_size(1);
  std::uint64_t size = 1;
  for (unsigned k = 1; k <= levels; ++k) {
    size *= params_.b;
    scan_by_level_[k] = params_.scan_size(size);
    leaves_by_level_[k] = params_.a * leaves_by_level_[k - 1];
    units_by_level_[k] = params_.a * units_by_level_[k - 1] + scan_by_level_[k];
  }
  stack_.push_back(
      {n, levels, 0, 0,
       profile::OrderPerturbedWorstCaseSource::root_hash(adversary_seed_)});
  normalize();
  CADAPT_CHECK(!stack_.empty());  // a fresh problem always has work
}

std::uint64_t RegularExecution::units_done() const {
  if (stack_.empty()) return total_units();
  std::uint64_t total = 0;
  for (const Frame& f : stack_) {
    if (f.size == 1) break;  // pending base case contributes nothing
    total += completed_children(f) * units_by_level_[f.level - 1];
    const std::uint64_t chunks_complete = f.phase / 2;
    for (std::uint64_t j = 0; j < chunks_complete; ++j)
      total += chunk_size(f, j);
    if (f.phase % 2 == 1) total += f.scan_offset;
  }
  return total;
}

std::uint64_t RegularExecution::chunk_size(const Frame& f,
                                           std::uint64_t chunk) const {
  const std::uint64_t scan = scan_by_level_[f.level];
  const std::uint64_t a = params_.a;
  CADAPT_CHECK(chunk < a);
  switch (placement_) {
    case ScanPlacement::kEnd:
      return chunk + 1 == a ? scan : 0;
    case ScanPlacement::kAdversaryMatched: {
      // The whole scan goes right after child own_after (1-based); chunk
      // i follows child i+1, so the scan lands in chunk own_after - 1.
      const std::uint64_t after = profile::OrderPerturbedWorstCaseSource::
          own_after(f.node_hash, a);
      return chunk + 1 == after ? scan : 0;
    }
    case ScanPlacement::kInterleaved:
      break;
  }
  // kInterleaved: distribute as evenly as possible; earlier chunks take
  // the remainder.
  const std::uint64_t base = scan / a;
  const std::uint64_t extra = chunk < scan % a ? 1 : 0;
  return base + extra;
}

std::uint64_t RegularExecution::leaves_done_within(std::size_t idx) const {
  std::uint64_t total = 0;
  for (std::size_t i = idx; i < stack_.size(); ++i) {
    if (stack_[i].size == 1) break;  // a pending base case contributes 0
    total += completed_children(stack_[i]) *
             leaves_by_level_[stack_[i].level - 1];
  }
  return total;
}

std::uint64_t RegularExecution::normalize() {
  const std::uint64_t a = params_.a;
  std::uint64_t largest_retired = 0;
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    if (f.size == 1) break;  // pending base case
    if (f.phase % 2 == 0) {
      // Descend into child phase/2. Path hashes only steer
      // kAdversaryMatched; every other placement leaves them 0 and skips
      // the per-descent hash.
      const std::uint64_t child_hash =
          placement_ == ScanPlacement::kAdversaryMatched
              ? util::hash_combine(f.node_hash, f.phase / 2)
              : 0;
      stack_.push_back({f.size / params_.b, f.level - 1, 0, 0, child_hash});
      continue;
    }
    // Odd phase: scan chunk (phase - 1) / 2.
    if (f.scan_offset < chunk_size(f, (f.phase - 1) / 2)) break;
    f.phase += 1;
    f.scan_offset = 0;
    if (f.phase == 2 * a) {
      largest_retired = std::max(largest_retired, f.size);
      stack_.pop_back();
      if (!stack_.empty()) {
        // The parent's current (even) child phase just completed.
        stack_.back().phase += 1;
        stack_.back().scan_offset = 0;
      }
    }
  }
  return largest_retired;
}

BoxReport RegularExecution::consume_box(profile::BoxSize s) {
  CADAPT_CHECK_MSG(s >= 1, "box size must be >= 1");
  CADAPT_CHECK_MSG(!done(), "consume_box on a finished execution");
  ++boxes_consumed_;
  // Disabled path (no recorder): one predictable never-taken branch, then
  // the same tail-call dispatch as the uninstrumented engine — guarded by
  // bench_microbench's BM_EngineUnitBoxes staying within noise of the
  // seed engine.
  if (recorder_ != nullptr) [[unlikely]] return consume_box_recorded(s);
  return semantics_ == BoxSemantics::kOptimistic ? consume_box_optimistic(s)
                                                 : consume_box_budgeted(s);
}

[[gnu::cold, gnu::noinline]] BoxReport RegularExecution::consume_box_recorded(
    profile::BoxSize s) {
  // Classify the branch before consuming: frame sizes strictly decrease
  // with depth, so the box jump-completes iff the deepest frame — the
  // smallest enclosing problem — has size <= s.
  const obs::ExecBranch branch =
      semantics_ == BoxSemantics::kBudgeted ? obs::ExecBranch::kBudgeted
      : stack_.back().size <= s             ? obs::ExecBranch::kCompleteJump
                                            : obs::ExecBranch::kScanAdvance;
  // Per-box scan advance is the delta of the identity
  // scan position = units_done() - leaves_done() around the box; the two
  // O(depth) units_done() walks are paid only here, on the recording path.
  const std::uint64_t scan_before = units_done() - leaves_done_;
  const BoxReport report = semantics_ == BoxSemantics::kOptimistic
                               ? consume_box_optimistic(s)
                               : consume_box_budgeted(s);
  recorder_->on_box({boxes_consumed_ - 1, s, report.progress,
                     units_done() - leaves_done_ - scan_before,
                     report.completed_problem, branch});
  return report;
}

BoxReport RegularExecution::consume_box_optimistic(profile::BoxSize s) {
  BoxReport report;

  // Frame sizes strictly decrease with depth, so the frames of size <= s
  // form a suffix of the stack; find the topmost one.
  std::size_t idx = stack_.size();
  while (idx > 0 && stack_[idx - 1].size <= s) --idx;

  if (idx < stack_.size()) {
    // The box begins inside the problem stack_[idx] of size <= s: it
    // completes that problem in full and goes no further (§4 semantics).
    const std::uint64_t completed_size = stack_[idx].size;
    const std::uint64_t remaining =
        leaves_by_level_[stack_[idx].level] - leaves_done_within(idx);
    leaves_done_ += remaining;
    report.progress = remaining;
    report.completed_problem = completed_size;
    stack_.resize(idx);
    if (!stack_.empty()) {
      stack_.back().phase += 1;
      stack_.back().scan_offset = 0;
      // The jump may cascade: completing the last child of a problem with
      // no (remaining) scan completes that problem too.
      report.completed_problem =
          std::max(report.completed_problem, normalize());
    }
    return report;
  }

  // Every enclosing problem is larger than s, so the current position is
  // inside a scan (a pending base case has size 1 <= s and would have been
  // caught above).
  Frame& f = stack_.back();
  CADAPT_CHECK(f.phase % 2 == 1);
  const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
  CADAPT_CHECK(f.scan_offset < chunk);
  const std::uint64_t advance = std::min<std::uint64_t>(s, chunk - f.scan_offset);
  f.scan_offset += advance;
  // Finishing the last scan chunk retires the problem (and possibly its
  // ancestors); report the largest problem retired.
  report.completed_problem = normalize();
  return report;
}

BoxReport RegularExecution::consume_box_budgeted(profile::BoxSize s) {
  BoxReport report;
  std::uint64_t budget = s;
  while (budget > 0 && !stack_.empty()) {
    Frame& f = stack_.back();
    if (f.phase % 2 == 1) {
      // In a scan: each scan access loads one (fresh) block.
      const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
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
    CADAPT_CHECK(f.size == 1);
    std::size_t idx = stack_.size() - 1;  // the leaf frame itself
    while (idx > 0 && stack_[idx - 1].phase == 0 &&
           stack_[idx - 1].scan_offset == 0 && stack_[idx - 1].size <= budget) {
      --idx;
    }
    if (stack_[idx].size > budget) break;  // cannot even afford the leaf
    const std::uint64_t completed_size = stack_[idx].size;
    const std::uint64_t whole = leaves_by_level_[stack_[idx].level];
    const std::uint64_t remaining = whole - leaves_done_within(idx);
    CADAPT_CHECK(remaining == whole);  // at start
    leaves_done_ += remaining;
    report.progress += remaining;
    report.completed_problem = std::max(report.completed_problem, completed_size);
    budget -= completed_size;
    stack_.resize(idx);
    if (!stack_.empty()) {
      stack_.back().phase += 1;
      stack_.back().scan_offset = 0;
      report.completed_problem =
          std::max(report.completed_problem, normalize());
    }
  }
  return report;
}

RunReport RegularExecution::consume_run(profile::BoxSize s,
                                        std::uint64_t count,
                                        const robust::CancelToken* cancel) {
  CADAPT_CHECK_MSG(count >= 1, "run count must be >= 1");
  CADAPT_CHECK_MSG(!done(), "consume_run on a finished execution");
  RunReport report;
  // A per-box recorder must observe every box: literal reference loop.
  if (recorder_ != nullptr && !recorder_->aggregates_runs()) {
    for (std::uint64_t i = 0; i < count && !done(); ++i) {
      if (cancel != nullptr) cancel->poll();
      const BoxReport r = consume_box(s);
      report.progress += r.progress;
      report.completed_problem =
          std::max(report.completed_problem, r.completed_problem);
    }
    return report;
  }
  CADAPT_CHECK_MSG(s >= 1, "box size must be >= 1");
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
    if (retiring && count - consumed >= 2 && stack_.back().size == 1) {
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
      Frame& f = stack_.back();
      if (f.phase % 2 == 1 &&
          (semantics_ == BoxSemantics::kBudgeted || f.size > s)) {
        const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
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
    const BoxReport r = consume_box(s);
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
  std::size_t best = stack_.size();
  std::uint64_t best_boxes = 0;
  std::uint64_t boxes = 1;
  for (std::size_t i = stack_.size() - 1;; --i) {
    const Frame& f = stack_[i];
    if (f.size > s) {
      boxes = params_.a * boxes + scan_boxes(f.level, s);
      if (boxes > budget) break;
      best = i;
      best_boxes = boxes;
    }
    if (i == 0 || stack_[i - 1].phase != 0) break;
  }
  if (best == stack_.size()) return 0;
  const std::uint64_t leaves = leaves_by_level_[stack_[best].level];
  report.progress += leaves;
  report.completed_problem =
      std::max(report.completed_problem, stack_[best].size);
  leaves_done_ += leaves;
  boxes_consumed_ += best_boxes;
  stack_.resize(best);
  if (!stack_.empty()) {
    // The subtree's last box ends exactly at its end; retiring it may
    // cascade, as it does after that literal box.
    stack_.back().phase += 1;
    stack_.back().scan_offset = 0;
    report.completed_problem =
        std::max(report.completed_problem, normalize());
  }
  return best_boxes;
}

std::uint64_t RegularExecution::scan_boxes(std::uint64_t level,
                                           profile::BoxSize s) const {
  // Each box advances min(s, rest of its chunk): a chunk of L blocks takes
  // ceil(L / s) boxes and an empty one none. Only kInterleaved splits the
  // scan; the other placements put it in one chunk, wherever it sits.
  const std::uint64_t scan = scan_by_level_[level];
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
  out.reserve(stack_.size());
  for (const Frame& f : stack_) {
    out.push_back({f.size, f.phase, f.scan_offset});
  }
}

std::optional<PeriodicDelta> RegularExecution::classify_period(
    const StackSignature& before, std::uint64_t want) const {
  if (want == 0) return std::nullopt;
  // Node hashes are excluded from signatures; under kAdversaryMatched
  // they choose chunk placements, so nothing is certifiable there.
  if (placement_ == ScanPlacement::kAdversaryMatched) return std::nullopt;
  if (stack_.empty() || stack_.size() != before.size()) return std::nullopt;
  const std::size_t len = stack_.size();
  // Exactly one frame may have moved; sizes must agree everywhere (the
  // frames deeper than the moved one are the recreated descent into the
  // next child — identical triples mean identical future behavior, since
  // chunk sizes depend only on (size, placement) here).
  std::size_t p = len;
  for (std::size_t i = 0; i < len; ++i) {
    const Frame& f = stack_[i];
    if (f.size != before[i][0]) return std::nullopt;
    if (f.phase != before[i][1] || f.scan_offset != before[i][2]) {
      if (p != len) return std::nullopt;
      p = i;
    }
  }
  if (p == len) return std::nullopt;  // nothing visibly moved
  const Frame& f = stack_[p];
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
    const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
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
        same = chunk_size(f, i1 + (r - 1) * di + j) == chunk_size(f, i0 + j);
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
  CADAPT_CHECK(delta.frame < stack_.size());
  Frame& f = stack_[delta.frame];
  f.phase += m * delta.dphase;
  f.scan_offset += m * delta.doffset;
  leaves_done_ += m * leaves_per_repeat;
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
    // failed period probe each, so it arrives kBatchBoxes at a time. Each
    // maximal stretch of equal boxes long enough to gain goes through
    // consume_run (subtree retirement and in-scan arithmetic still serve
    // long runs of small boxes); the rest go box by box, exactly as the
    // reference loop feeds them.
    constexpr std::size_t kBatchBoxes = 256;
    constexpr std::size_t kMinStretch = 4;
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
      for (std::size_t i = 0; i < len && !exec.done();) {
        const profile::BoxSize s = batch[i];
        std::size_t j = i + 1;
        while (j < len && batch[j] == s) ++j;
        if (j - i >= kMinStretch) {
          const std::uint64_t before = exec.boxes_consumed();
          exec.consume_run(s, j - i, cancel);
          acc.add_boxes(s, exec.boxes_consumed() - before);
          i = j;
          continue;
        }
        for (; i < j && !exec.done(); ++i) {
          acc.add_box(s);
          exec.consume_box(s);
        }
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
