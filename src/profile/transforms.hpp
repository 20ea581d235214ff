// Smoothing transforms on profiles — the perturbations whose (in)effective-
// ness the paper analyzes.
//
//  * SizePerturbSource  — multiply each box size by an i.i.d. factor X_i
//    drawn from a distribution P over [0, t] with E[X] = Θ(t)
//    ("box-size perturbations"; negative result).
//  * CyclicShiftSource  — start the profile at a random box offset and wrap
//    ("start-time perturbations"; negative result).
//  * shuffle_boxes      — uniformly permute a materialized profile; sampling
//    i.i.d. from the empirical distribution (profile::Empirical) is the
//    infinite-stream analogue used by Theorem 1 (positive result).
#pragma once

#include <functional>
#include <memory>

#include "profile/box.hpp"
#include "profile/box_source.hpp"
#include "util/random.hpp"

namespace cadapt::profile {

/// Samples a perturbation factor X (see the paper's distribution P over
/// [0,t] with E[X] = Θ(t)).
using PerturbSampler = std::function<double(util::Rng&)>;

/// X uniform on the real interval [0, t]; E[X] = t/2.
PerturbSampler uniform_real_perturb(double t);

/// X uniform on the integers {1, ..., t}; E[X] = (t+1)/2.
PerturbSampler uniform_int_perturb(std::uint64_t t);

/// X = t deterministically (pure scaling; the paper's T · M_{a,b}).
PerturbSampler point_perturb(double t);

/// Applies an i.i.d. multiplicative perturbation to each box of the inner
/// source. Perturbed sizes are rounded down and clamped to >= 1 (a box of
/// size 0 has no meaning in the model).
class SizePerturbSource final : public BoxSource {
 public:
  SizePerturbSource(std::unique_ptr<BoxSource> inner, PerturbSampler sampler,
                    util::Rng rng);

  std::optional<BoxSize> next() override;

  /// Coalesced runs via one-box lookahead. Exactly one factor is drawn per
  /// inner box, in stream order, so the perturbed stream is bit-identical
  /// to per-box consumption.
  std::optional<BoxRun> next_run() override;

 private:
  std::optional<BoxSize> perturb_next();

  std::unique_ptr<BoxSource> inner_;
  PerturbSampler sampler_;
  util::Rng rng_;
  BoxRun inner_run_;                // inner boxes pulled but not yet perturbed
  std::optional<BoxSize> pending_;  // looked-ahead box not yet delivered
};

/// Cyclic shift of a finite profile by `offset` boxes: emits boxes
/// offset, offset+1, ..., end, 0, ..., offset-1, then exhausts.
/// The factory must recreate the same profile on each call; offset must be
/// less than the profile's box count (checked at construction by skipping).
class CyclicShiftSource final : public BoxSource {
 public:
  CyclicShiftSource(SourceFactory factory, std::uint64_t offset);

  std::optional<BoxSize> next() override;

  /// Forwards the inner source's native runs; the tail after wrap-around
  /// clamps the final run to the boxes still owed (clamping only fires on
  /// the very last run, after which the source is exhausted).
  std::optional<BoxRun> next_run() override;

  /// Forwards the inner source's blocks: a shifted M_{a,b}(n) keeps every
  /// SubtreeBlock of the unshifted profile. After the wrap a block is
  /// clamped to the whole repeats that fit in the boxes still owed, and
  /// skipped repeats are charged to that tail.
  bool provides_blocks() const override { return inner_->provides_blocks(); }
  std::optional<SubtreeBlock> peek_block() override;
  void skip_repeats(std::uint64_t m) override;

 private:
  SourceFactory factory_;
  std::uint64_t offset_;
  std::unique_ptr<BoxSource> inner_;
  std::uint64_t tail_remaining_;  // boxes still to emit after wrap-around
  bool wrapped_ = false;
};

/// In-place Fisher–Yates shuffle of a materialized profile.
void shuffle_boxes(std::vector<BoxSize>& boxes, util::Rng& rng);

}  // namespace cadapt::profile
