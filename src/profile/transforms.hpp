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

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "profile/box.hpp"
#include "profile/box_source.hpp"
#include "util/random.hpp"

namespace cadapt::profile {

/// Samples a perturbation factor X (see the paper's distribution P over
/// [0,t] with E[X] = Θ(t)). A small value type rather than a type-erased
/// callable, so SizePerturbSource's buffer fill draws its factors inline.
class PerturbSampler {
 public:
  double operator()(util::Rng& rng) const {
    switch (kind_) {
      case Kind::kUniformReal:
        return rng.uniform01() * t_;
      case Kind::kUniformInt:
        return static_cast<double>(rng.between(1, int_t_));
      case Kind::kPoint:
        break;
    }
    return t_;
  }

 private:
  enum class Kind : std::uint8_t { kUniformReal, kUniformInt, kPoint };
  PerturbSampler(Kind kind, double t, std::uint64_t int_t)
      : kind_(kind), t_(t), int_t_(int_t) {}

  friend PerturbSampler uniform_real_perturb(double t);
  friend PerturbSampler uniform_int_perturb(std::uint64_t t);
  friend PerturbSampler point_perturb(double t);

  Kind kind_;
  double t_;
  std::uint64_t int_t_;
};

/// X uniform on the real interval [0, t]; E[X] = t/2.
PerturbSampler uniform_real_perturb(double t);

/// X uniform on the integers {1, ..., t}; E[X] = (t+1)/2.
PerturbSampler uniform_int_perturb(std::uint64_t t);

/// X = t deterministically (pure scaling; the paper's T · M_{a,b}).
PerturbSampler point_perturb(double t);

/// Applies an i.i.d. multiplicative perturbation to each box of the inner
/// source. Perturbed sizes are rounded down and clamped to >= 1 (a box of
/// size 0 has no meaning in the model).
///
/// Boxes are produced kBuffer at a time: the inner stream is pulled a
/// native run at a time and one factor is drawn per inner box, in stream
/// order, so next() and next_batch() both deliver exactly the per-box
/// perturbation of the inner stream. Perturbed runs are short (about 1.4
/// boxes for perturb:4), so the source announces provides_batches() and
/// the engine consumes it batch by batch (docs/PERF.md, "Batch path").
class SizePerturbSource final : public BoxSource {
 public:
  SizePerturbSource(std::unique_ptr<BoxSource> inner, PerturbSampler sampler,
                    util::Rng rng);

  std::optional<BoxSize> next() override {
    if (pos_ == len_ && !refill()) return std::nullopt;
    return buffer_[pos_++];
  }

  std::size_t next_batch(std::span<BoxSize> out) override;
  bool provides_batches() const override { return true; }

 private:
  static constexpr std::size_t kBuffer = 256;

  /// Perturb the next (up to) kBuffer inner boxes into buffer_; false when
  /// the inner stream is exhausted.
  bool refill();

  std::unique_ptr<BoxSource> inner_;
  PerturbSampler sampler_;
  util::Rng rng_;
  BoxRun inner_run_;  // inner boxes pulled but not yet perturbed
  std::array<BoxSize, kBuffer> buffer_{};
  std::size_t pos_ = 0;  // next undelivered entry of buffer_
  std::size_t len_ = 0;  // filled entries of buffer_
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
