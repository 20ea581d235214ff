#include "profile/transforms.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cadapt::profile {

PerturbSampler uniform_real_perturb(double t) {
  CADAPT_CHECK(t > 0.0);
  return [t](util::Rng& rng) { return rng.uniform01() * t; };
}

PerturbSampler uniform_int_perturb(std::uint64_t t) {
  CADAPT_CHECK(t >= 1);
  return [t](util::Rng& rng) {
    return static_cast<double>(rng.between(1, t));
  };
}

PerturbSampler point_perturb(double t) {
  CADAPT_CHECK(t > 0.0);
  return [t](util::Rng&) { return t; };
}

SizePerturbSource::SizePerturbSource(std::unique_ptr<BoxSource> inner,
                                     PerturbSampler sampler, util::Rng rng)
    : inner_(std::move(inner)), sampler_(std::move(sampler)), rng_(rng) {
  CADAPT_CHECK(inner_ != nullptr);
  CADAPT_CHECK(sampler_ != nullptr);
}

std::optional<BoxSize> SizePerturbSource::perturb_next() {
  // The inner stream is pulled a native run at a time; the factors are
  // still drawn one per inner box, in stream order.
  if (inner_run_.count == 0) {
    const auto run = inner_->next_run();
    if (!run) return std::nullopt;
    inner_run_ = *run;
  }
  --inner_run_.count;
  const double factor = sampler_(rng_);
  CADAPT_CHECK_MSG(factor >= 0.0, "perturbation factor must be >= 0");
  const double scaled =
      std::floor(static_cast<double>(inner_run_.size) * factor);
  return static_cast<BoxSize>(std::max(1.0, scaled));
}

std::optional<BoxSize> SizePerturbSource::next() {
  if (pending_) {
    const BoxSize box = *pending_;
    pending_.reset();
    return box;
  }
  return perturb_next();
}

std::optional<BoxRun> SizePerturbSource::next_run() {
  std::optional<BoxSize> head = pending_;
  pending_.reset();
  if (!head) head = perturb_next();
  if (!head) return std::nullopt;
  // Cap the lookahead so one call stays bounded even when the perturbed
  // stream happens to be constant (e.g. point_perturb of a point source).
  constexpr std::uint64_t kMaxCoalesce = UINT64_C(1) << 12;
  std::uint64_t count = 1;
  while (count < kMaxCoalesce) {
    const auto box = perturb_next();
    if (!box) break;  // inner exhausted; the run ends cleanly
    if (*box != *head) {
      pending_ = box;  // first box of the NEXT run
      break;
    }
    ++count;
  }
  return BoxRun{*head, count};
}

CyclicShiftSource::CyclicShiftSource(SourceFactory factory,
                                     std::uint64_t offset)
    : factory_(std::move(factory)), offset_(offset), inner_(factory_()),
      tail_remaining_(offset) {
  // Seek past the first `offset` boxes, skipping whole announced repeats
  // where they fit (O(depth) for M_{a,b}(n) instead of O(offset)).
  const bool blocks = inner_->provides_blocks();
  std::uint64_t skipped = 0;
  while (skipped < offset_) {
    if (const auto block = blocks ? inner_->peek_block() : std::nullopt) {
      const std::uint64_t m = std::min(
          block->repeats, (offset_ - skipped) / block->boxes_per_repeat);
      if (m > 0) {
        inner_->skip_repeats(m);
        skipped += m * block->boxes_per_repeat;
        continue;
      }
    }
    CADAPT_CHECK_MSG(inner_->next().has_value(),
                     "cyclic shift offset " << offset_
                                            << " exceeds profile length "
                                            << skipped);
    ++skipped;
  }
}

std::optional<BoxSize> CyclicShiftSource::next() {
  if (!wrapped_) {
    if (auto box = inner_->next()) return box;
    // Reached the end of the profile: wrap to its beginning.
    wrapped_ = true;
    inner_ = factory_();
  }
  if (tail_remaining_ == 0) return std::nullopt;
  --tail_remaining_;
  auto box = inner_->next();
  CADAPT_CHECK_MSG(box.has_value(),
                   "profile shrank between factory invocations");
  return box;
}

std::optional<SubtreeBlock> CyclicShiftSource::peek_block() {
  auto block = inner_->peek_block();
  if (!block || !wrapped_) return block;
  block->repeats = std::min(block->repeats,
                            tail_remaining_ / block->boxes_per_repeat);
  if (block->repeats == 0) return std::nullopt;
  return block;
}

void CyclicShiftSource::skip_repeats(std::uint64_t m) {
  if (wrapped_) {
    // peek_block() clamped the block to the tail, so the caller never
    // skips past it (a repeat consumed since the peek was charged by
    // next_run()).
    const std::uint64_t boxes = m * inner_->peek_block()->boxes_per_repeat;
    CADAPT_CHECK(boxes <= tail_remaining_);
    tail_remaining_ -= boxes;
  }
  inner_->skip_repeats(m);
}

std::optional<BoxRun> CyclicShiftSource::next_run() {
  if (!wrapped_) {
    if (auto run = inner_->next_run()) return run;
    wrapped_ = true;
    inner_ = factory_();
  }
  if (tail_remaining_ == 0) return std::nullopt;
  auto run = inner_->next_run();
  CADAPT_CHECK_MSG(run.has_value(),
                   "profile shrank between factory invocations");
  run->count = std::min(run->count, tail_remaining_);
  tail_remaining_ -= run->count;
  return run;
}

void shuffle_boxes(std::vector<BoxSize>& boxes, util::Rng& rng) {
  if (boxes.size() < 2) return;
  for (std::size_t i = boxes.size() - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i + 1));
    std::swap(boxes[i], boxes[j]);
  }
}

}  // namespace cadapt::profile
