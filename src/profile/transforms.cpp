#include "profile/transforms.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cadapt::profile {

PerturbSampler uniform_real_perturb(double t) {
  CADAPT_CHECK(t > 0.0);
  return {PerturbSampler::Kind::kUniformReal, t, 0};
}

PerturbSampler uniform_int_perturb(std::uint64_t t) {
  CADAPT_CHECK(t >= 1);
  return {PerturbSampler::Kind::kUniformInt, static_cast<double>(t), t};
}

PerturbSampler point_perturb(double t) {
  CADAPT_CHECK(t > 0.0);
  return {PerturbSampler::Kind::kPoint, t, 0};
}

SizePerturbSource::SizePerturbSource(std::unique_ptr<BoxSource> inner,
                                     PerturbSampler sampler, util::Rng rng)
    : inner_(std::move(inner)), sampler_(sampler), rng_(rng) {
  CADAPT_CHECK(inner_ != nullptr);
}

bool SizePerturbSource::refill() {
  std::size_t len = 0;
  while (len < kBuffer) {
    if (inner_run_.count == 0) {
      const auto run = inner_->next_run();
      if (!run) break;
      inner_run_ = *run;
    }
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(inner_run_.count, kBuffer - len));
    std::fill_n(buffer_.begin() + static_cast<std::ptrdiff_t>(len), take,
                inner_run_.size);
    inner_run_.count -= take;
    len += take;
  }
  pos_ = 0;
  len_ = len;
  // One factor per inner box, in stream order. Every factor is >= 0, so
  // the product is too and truncation is the floor; anything below 1
  // clamps to the smallest box.
  for (std::size_t i = 0; i < len; ++i) {
    const double scaled = static_cast<double>(buffer_[i]) * sampler_(rng_);
    buffer_[i] = scaled >= 1.0 ? static_cast<BoxSize>(scaled) : 1;
  }
  return len > 0;
}

std::size_t SizePerturbSource::next_batch(std::span<BoxSize> out) {
  if (pos_ == len_ && !refill()) return 0;
  const std::size_t n = std::min(out.size(), len_ - pos_);
  std::copy_n(buffer_.begin() + static_cast<std::ptrdiff_t>(pos_), n,
              out.begin());
  pos_ += n;
  return n;
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
