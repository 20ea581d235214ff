// Execution of an (a,b,c)-regular algorithm over a square profile, under
// the simplified caching semantics of Section 4 of the paper (proved
// there to be w.l.o.g. for cache-adaptive analysis):
//
//   * a box of size s that begins inside a problem of size <= s completes
//     the largest enclosing problem of size <= s, and goes no further;
//   * a box of size s that begins in the scan of a problem larger than s
//     advances min(s, remaining scan) accesses of that scan.
//
// The execution is symbolic: no data is touched, only the position within
// the recursion tree is tracked, so profiles with tens of millions of
// boxes run in seconds. (The paging + algos modules provide the
// complementary *concrete* machine that runs real algorithms.)
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "model/potential.hpp"
#include "model/regular.hpp"
#include "profile/box_source.hpp"

namespace cadapt::obs {
class ExecRecorder;
enum class ExecBranch : std::uint8_t;
}  // namespace cadapt::obs

namespace cadapt::robust {
class CancelToken;
}  // namespace cadapt::robust

namespace cadapt::engine {

/// Where the linear scan of each problem is placed.
///
/// kEnd is the paper's canonical form (w.l.o.g. for its worst-case
/// constructions): the whole scan follows the last recursive call.
/// kInterleaved splits the scan into a equal chunks, one after each
/// recursive call — a lightweight form of the scan-hiding idea of
/// Lincoln et al. [40] that de-synchronizes the scan from profiles
/// engineered against trailing scans.
/// kAdversaryMatched places each problem's whole scan after child number
/// profile::OrderPerturbedWorstCaseSource::own_after(node_hash, a): with
/// the same seed it mirrors the order-perturbed worst-case profile — the
/// witness algorithm for the paper's third negative result.
enum class ScanPlacement { kEnd, kInterleaved, kAdversaryMatched };

/// How much work one box can complete.
///
/// kOptimistic is the paper's §4 simplified model: a box of size s
/// beginning inside a problem of size <= s completes the largest
/// enclosing problem of size <= s, regardless of how much of that problem
/// already ran. This is the semantics under which the paper proves its
/// positive theorem (it only over-credits boxes, which is safe for an
/// upper bound).
///
/// kBudgeted is a conservative model of the underlying machine when the
/// algorithm's scans and sibling subproblems occupy disjoint blocks: the
/// box has a budget of s block loads; completing a whole problem of size
/// m (from its start) costs m, and each scan access costs 1. A box never
/// jumps out of a scan it lands in — exactly the accounting behind the
/// paper's worst-case profiles and its negative (robustness) results.
enum class BoxSemantics { kOptimistic, kBudgeted };

/// Result of consuming one box.
struct BoxReport {
  /// Base-case subproblems completed within this box (the paper's
  /// "progress").
  std::uint64_t progress = 0;
  /// Size of the problem this box completed in full, or 0 if the box only
  /// advanced a scan.
  std::uint64_t completed_problem = 0;
  // Note: the per-box scan advance (non-base-case unit accesses) is NOT a
  // field here — keeping this struct register-returnable (16 bytes on the
  // SysV ABI) is what keeps the uninstrumented hot loop at seed speed. An
  // attached obs::ExecRecorder receives it per box, derived from the
  // identity scan = units_done() - leaves_done(); per run,
  // Σ progress + Σ scan_advance == total_units() — the conservation
  // invariant the observability layer checks traces against.
};

/// Result of consuming a run of equal-size boxes (consume_run).
struct RunReport {
  /// Base-case subproblems completed within the run.
  std::uint64_t progress = 0;
  /// Largest problem completed in full by any box of the run, or 0.
  std::uint64_t completed_problem = 0;
};

/// Position snapshot for periodicity probing (docs/PERF.md): the
/// (size, phase, scan_offset) triple of every stack frame, root first.
/// node_hash is deliberately excluded — it only influences execution
/// under ScanPlacement::kAdversaryMatched, where probing is disabled.
using StackSignature = std::vector<std::array<std::uint64_t, 3>>;

/// A certified periodic advance: starting from the probed signature, each
/// further repeat of the same box subsequence moves only stack frame
/// `frame`, by `dphase`/`doffset`, for up to `max_repeats` repeats.
struct PeriodicDelta {
  std::size_t frame = 0;
  std::uint64_t dphase = 0;
  std::uint64_t doffset = 0;
  std::uint64_t max_repeats = 0;
};

struct RunResult;
struct RunOptions;

/// State machine for one execution of an (a,b,c)-regular algorithm on a
/// problem of n blocks (n a power of b).
class RegularExecution {
 public:
  /// adversary_seed is only consulted for ScanPlacement::kAdversaryMatched;
  /// pass the seed of the OrderPerturbedWorstCaseSource being matched.
  RegularExecution(const model::RegularParams& params, std::uint64_t n,
                   ScanPlacement placement = ScanPlacement::kEnd,
                   std::uint64_t adversary_seed = 0,
                   BoxSemantics semantics = BoxSemantics::kOptimistic);

  /// Feed the next box of the profile to the algorithm. Must not be
  /// called once done().
  BoxReport consume_box(profile::BoxSize s);

  /// consume_box for a caller that already knows the box's level,
  /// `level == level_of(s)` (checked).
  BoxReport consume_box(profile::BoxSize s, unsigned level);

  /// floor(log_b(min(n, s))): the level of the largest problem a box of
  /// size s can complete. O(1): a table keyed by the bit width of s and
  /// one comparison.
  unsigned level_of(profile::BoxSize s) const {
    // s - 1 >= n - 1 is s >= n, and also catches s = 0 (by wrapping),
    // which consume_box then rejects.
    if (s - 1 >= n_ - 1) return root_;
    // Between 2^(w-1) and 2^w - 1 lies at most one power of b >= 2.
    const unsigned lo = level_by_width_[std::bit_width(s)];
    return s > levels_[lo].last ? lo + 1 : lo;
  }

  /// Bulk path (docs/PERF.md): consume `count` consecutive boxes of size
  /// s, bit-identical in every observable to `count` consume_box(s) calls
  /// but O(1) per arithmetic scan stretch / certified period instead of
  /// O(count). Stops early when the execution completes; returns the
  /// number of boxes actually consumed via boxes_consumed(). Falls back
  /// to literal per-box stepping whenever a per-box recorder is attached
  /// (ExecRecorder in kBoxes granularity) or no closed form applies.
  /// A non-null `cancel` is polled once per step, so a single long run
  /// (a point-mass run can span the whole execution) stays interruptible
  /// (docs/ROBUSTNESS.md).
  RunReport consume_run(profile::BoxSize s, std::uint64_t count,
                        const robust::CancelToken* cancel = nullptr);

  /// Snapshot of the stack for periodicity probing. O(depth).
  StackSignature signature() const;

  /// Decide whether the state change since `before` (one consumed repeat
  /// of some box subsequence) is a certified periodic advance that can be
  /// replayed, and for how many further repeats (capped at `want`).
  /// Returns std::nullopt when the change is not provably periodic —
  /// always, under ScanPlacement::kAdversaryMatched, where node hashes
  /// (excluded from signatures) influence chunk placement.
  std::optional<PeriodicDelta> classify_period(const StackSignature& before,
                                               std::uint64_t want) const;

  /// Replay `m <= delta.max_repeats` further repeats in closed form:
  /// advances the delta frame arithmetically and credits
  /// m * boxes_per_repeat boxes and m * leaves_per_repeat base cases.
  /// The caller certifies (via classify_period) that literal re-execution
  /// would reach exactly this state.
  void apply_period(const PeriodicDelta& delta, std::uint64_t m,
                    std::uint64_t boxes_per_repeat,
                    std::uint64_t leaves_per_repeat);

  bool done() const { return top_ > root_; }
  std::uint64_t problem_size() const { return n_; }
  std::uint64_t boxes_consumed() const { return boxes_consumed_; }
  /// Base cases completed so far; total_leaves() when done.
  std::uint64_t leaves_done() const { return leaves_done_; }
  std::uint64_t total_leaves() const { return total_leaves_; }
  const model::RegularParams& params() const { return params_; }

  /// Position in the flattened execution: unit accesses (base cases plus
  /// individual scan blocks) completed so far. This is the reference
  /// position r_i of the No-Catch-up Lemma (Lemma 2): a run that is ahead
  /// in units can never fall behind one that is behind, given the same
  /// remaining boxes.
  std::uint64_t units_done() const;
  /// Total unit accesses of the whole problem.
  std::uint64_t total_units() const { return units_by_level_[root_]; }

  /// Attach (or detach, with nullptr) an observability recorder: every
  /// subsequent consume_box emits one obs::BoxObservation. The disabled
  /// path (no recorder) costs a single predictable branch per box —
  /// guarded by bench_microbench's BM_EngineUnitBoxes family.
  void set_recorder(obs::ExecRecorder* recorder) { recorder_ = recorder; }
  obs::ExecRecorder* recorder() const { return recorder_; }

 private:
  friend RunResult run_to_completion(RegularExecution& exec,
                                     profile::BoxSource& source,
                                     const RunOptions& options);

  /// One row per level l of the recursion (problem size b^l): the level's
  /// constants, then the state of the stack frame at that level. The frame
  /// at depth d of the recursion stack always has level L - d (L =
  /// log_b n), so the open frames are exactly the levels top_..L and the
  /// stack is stored as these rows: no frame is pushed or popped, a
  /// descent writes a row and a return moves top_.
  struct Level {
    std::uint64_t size;    // b^l
    std::uint64_t last;    // largest box of level l: b^(l+1) - 1, or max at L
    std::uint64_t leaves;  // a^l, the base cases of the problem
    std::uint64_t scan;    // scan_size(b^l), its whole scan
    // Frame state, meaningful for top_ <= l <= L only.
    std::uint64_t phase;         // 0..2a-1: even 2i = in child i, odd 2i+1 = in scan chunk i
    std::uint64_t scan_offset;   // progress within the current scan chunk
    std::uint64_t start_leaves;  // leaves_done_ when the frame began
    std::uint64_t node_hash;     // path hash (kAdversaryMatched only; else 0)
  };

  /// Fill `out` with the stack snapshot signature() returns, reusing its
  /// capacity.
  void signature_into(StackSignature& out) const;
  /// Scan chunk i (0-based) of the open frame at `level`.
  std::uint64_t chunk_size(unsigned level, std::uint64_t chunk) const;
  /// Children of the frame that are fully complete: (phase + 1) / 2.
  static std::uint64_t completed_children(const Level& f) {
    return (f.phase + 1) / 2;
  }
  /// Retire the open frame at `level` (top_ <= level): it completes in
  /// full, with a^level base cases counted from its start. Pops every
  /// frame up to it, credits the parent's child and restores the resting
  /// invariant. Returns the size of the largest problem retired.
  std::uint64_t complete_frame(unsigned level, std::uint64_t& progress);
  /// The frames below `level` have just retired, the largest of size
  /// `largest`: credit the child of the frame at `level` and restore the
  /// resting invariant. Returns the size of the largest problem retired.
  std::uint64_t retire_up(unsigned level, std::uint64_t largest);
  /// Open fresh frames below the even-phase frame at top_, down to a
  /// pending base case (each new frame starts in its child 0).
  void descend();
  /// Restore the invariant: the deepest frame is a pending base case or a
  /// scan chunk with work remaining; completed frames are retired.
  /// Returns the size of the largest problem retired, or 0.
  std::uint64_t normalize();
  /// normalize() for the placements that split or move the scan.
  std::uint64_t normalize_general();
  /// normalize() for ScanPlacement::kEnd: every chunk but the last is
  /// empty, so a finished child passes straight to the next one.
  std::uint64_t normalize_end();
  /// consume_run's constant-stream step (docs/PERF.md, "Constant
  /// streams"): with the deepest frame a pending leaf, retire the largest
  /// enclosing problem that is still at its start, is larger than s, and
  /// completes within `budget` boxes of size s. Returns the boxes
  /// retired: 0, changing nothing, when no such problem exists.
  std::uint64_t retire_fresh(profile::BoxSize s, std::uint64_t budget,
                             RunReport& report);
  /// Boxes of size s that the scan of a level-`level` problem takes from
  /// its start, summed over its chunks.
  std::uint64_t scan_boxes(unsigned level, profile::BoxSize s) const;

  /// The step both consume_box overloads take once the level is known:
  /// checks s and done(), then consumes the box. Defined inline in
  /// exec.cpp, where run_to_completion's batch loop also takes it with the
  /// level of the BoundedPotentials entry that feeds the potential sums,
  /// so each box is resolved once.
  BoxReport step(profile::BoxSize s, unsigned level);
  /// consume_box's argument checks, out of line: throws the CheckError
  /// for whichever of them (s, done(), level) fails.
  [[noreturn]] void reject_box(profile::BoxSize s, unsigned level) const;
  BoxReport consume_box_optimistic(profile::BoxSize s, unsigned level);
  BoxReport consume_box_budgeted(profile::BoxSize s);
  /// Recording path, kept cold and out of line: classifies the branch the
  /// box is about to take, samples the scan position
  /// (units_done() - leaves_done()) around the box, consumes it, and
  /// emits the BoxObservation — so the hot disabled path pays only the
  /// recorder_ null test and is otherwise instruction-identical to the
  /// uninstrumented engine.
  BoxReport consume_box_recorded(profile::BoxSize s, unsigned level);

  model::RegularParams params_;
  std::uint64_t n_;
  ScanPlacement placement_;
  std::uint64_t adversary_seed_;
  BoxSemantics semantics_;
  std::uint64_t total_leaves_;
  std::uint64_t leaves_done_ = 0;
  std::uint64_t boxes_consumed_ = 0;
  obs::ExecRecorder* recorder_ = nullptr;
  /// L = log_b n: the root's level.
  unsigned root_ = 0;
  /// Level of the deepest open frame; root_ + 1 once the problem is done.
  unsigned top_ = 0;
  /// Rows 0..L, one per level (see Level); 64 bytes each.
  std::vector<Level> levels_;
  /// units_by_level_[l] = U(b^l), the unit accesses of a level-l problem:
  /// read only by units_done(), so kept out of the rows.
  std::vector<std::uint64_t> units_by_level_;
  /// level_by_width_[w] = floor(log_b(2^(w-1))) for w = 1..bit_width(n-1):
  /// level_of's first guess for a box of bit width w below n.
  std::array<std::uint8_t, 65> level_by_width_{};
  /// consume_run's period-probe snapshot, kept to reuse its allocation.
  StackSignature probe_sig_;
};

/// Why run_to_completion stopped.
enum class StopReason : std::uint8_t {
  kCompleted = 0,        ///< the algorithm finished
  kSourceExhausted = 1,  ///< finite profile ran out of boxes first
  kBoxCapHit = 2,        ///< the max_boxes cap was reached first
};

/// Outcome of running an execution to completion over a box stream.
struct RunResult {
  bool completed = false;           ///< == (stop == StopReason::kCompleted)
  StopReason stop = StopReason::kSourceExhausted;  ///< why the run ended
  std::uint64_t boxes = 0;          ///< boxes consumed (the paper's S_n)
  std::uint64_t leaves = 0;         ///< base cases completed
  double sum_bounded_potential = 0; ///< Σ min(n,|□_i|)^{log_b a}
  double ratio = 0;                 ///< sum_bounded_potential / n^{log_b a}
  /// Same criterion under the operation-based progress function (paper
  /// footnote 4): Σ ρ_U(min(n,|□_i|)) / U(n). Use for a <= b, where base
  /// cases under-count the algorithm's work.
  double unit_ratio = 0;
};

/// Knobs for run_to_completion.
struct RunOptions {
  std::uint64_t max_boxes = UINT64_C(1) << 40;
  /// Attached to the execution for the duration of the run; receives one
  /// observation per box (kBoxes granularity) or aggregated run/bulk
  /// observations (kRuns), plus the final "run" summary event.
  obs::ExecRecorder* recorder = nullptr;
  /// Force the literal per-box reference loop (source.next() +
  /// consume_box), disabling runs and block replay. The bulk path is
  /// bit-identical to this; the flag exists so differential tests and
  /// debugging can compare the two.
  bool per_box = false;
  /// Cooperative cancellation (docs/ROBUSTNESS.md): polled at every loop
  /// head (per box on the reference path, per run and per consume_run
  /// step on the bulk path), so a deadline interrupts even a single
  /// enormous trial. Throws
  /// robust::CancelledError out of run_to_completion; the campaign
  /// drivers discard the interrupted work (never aggregate it). Null =
  /// disabled, one never-taken branch of overhead.
  const robust::CancelToken* cancel = nullptr;
};

/// Drive an execution over a box stream until the algorithm finishes, the
/// stream is exhausted, or max_boxes boxes have been consumed.
///
/// By default this is the O(runs) bulk driver of docs/PERF.md: boxes are
/// pulled via source.next_run(), consumed via consume_run, and — when the
/// source announces repeated blocks (peek_block) — whole repeats are
/// retired in closed form after one probed repeat certifies periodicity
/// (classify_period) and the floating-point accumulators certify exact
/// replayability. Every RunResult field is bit-identical to the per-box
/// reference loop (options.per_box = true). A recorder in kBoxes
/// granularity forces the reference loop so per-box traces stay intact.
RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            const RunOptions& options);

/// Legacy signature; delegates to the options overload.
RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            std::uint64_t max_boxes = UINT64_C(1) << 40,
                            obs::ExecRecorder* recorder = nullptr);

/// Convenience: build the execution and run it.
RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source,
                      ScanPlacement placement = ScanPlacement::kEnd,
                      std::uint64_t max_boxes = UINT64_C(1) << 40,
                      std::uint64_t adversary_seed = 0,
                      BoxSemantics semantics = BoxSemantics::kOptimistic,
                      obs::ExecRecorder* recorder = nullptr);

/// Convenience: build the execution and run it with full options.
RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source, ScanPlacement placement,
                      std::uint64_t adversary_seed, BoxSemantics semantics,
                      const RunOptions& options);

}  // namespace cadapt::engine
