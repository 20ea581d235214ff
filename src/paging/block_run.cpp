#include "paging/block_run.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cadapt::paging {

namespace {

// Each trace is 12 bytes a run, tens of MB for a real program; freeing
// it when its cell ends and faulting as much in again for the next
// capture cost ~2 us a page, and whether glibc kept the freed block in
// its heap at all hung on its dynamic mmap threshold. So storage is
// recycled per thread instead: a long-lived thread keeps one spare (the
// largest trace it has held since the spare was last taken) until it
// exits. Peak residency is unchanged: a recorder takes the spare, so a
// thread holds one live trace or one spare per capture it runs.
thread_local bool t_spare_gone = false;  // trivial: readable at thread exit

struct SpareStorage {
  PodBuffer<BlockRunTrace::PackedRun> runs;
  PodBuffer<BlockRunTrace::ReplayStep> steps;
  ~SpareStorage() { t_spare_gone = true; }
};
thread_local SpareStorage t_spare;

/// Keep the larger of the spare and `buffer` as the spare; the other
/// ends up in `buffer`, freed by its owner.
template <class T>
void park(PodBuffer<T>& spare, PodBuffer<T>& buffer) {
  if (buffer.capacity() > spare.capacity()) std::swap(spare, buffer);
}

}  // namespace

BlockRunTrace::~BlockRunTrace() {
  if (runs_.capacity() == 0 && steps_.capacity() == 0) return;  // moved-from
  if (t_spare_gone) return;  // thread exit: plain free
  park(t_spare.runs, runs_);
  park(t_spare.steps, steps_);
}

BlockRunTrace BlockRunTrace::recycled(std::uint64_t block_size) {
  BlockRunTrace trace(block_size);
  if (!t_spare_gone) {
    trace.runs_ = std::move(t_spare.runs);
    trace.runs_.clear();
    trace.steps_ = std::move(t_spare.steps);
    trace.steps_.clear();
  }
  return trace;
}

std::size_t BlockRunTrace::thread_spare_bytes() {
  if (t_spare_gone) return 0;
  return t_spare.runs.capacity() * sizeof(PackedRun) +
         t_spare.steps.capacity() * sizeof(ReplayStep);
}

void BlockRunTrace::release_thread_spare() {
  if (t_spare_gone) return;
  t_spare.runs = {};
  t_spare.steps = {};
}

std::uint32_t BlockRunTrace::LastSeen::exchange(BlockId block,
                                                std::uint32_t run1) {
  if (block >= dense_.size()) {
    const std::uint64_t limit = 8 * static_cast<std::uint64_t>(run1) + 1024;
    if (block >= limit) {
      auto [it, inserted] = sparse_.try_emplace(block, run1);
      return inserted ? 0 : std::exchange(it->second, run1);
    }
    // Grow geometrically within the limit; entries the hash map held for
    // the newly covered ids move into the table.
    const std::uint64_t grown = std::min<std::uint64_t>(
        std::max<std::uint64_t>(block + 1, 2 * dense_.size()), limit);
    dense_.resize(grown, 0);
    for (auto it = sparse_.begin(); it != sparse_.end();) {
      if (it->first < grown) {
        dense_[it->first] = it->second;
        it = sparse_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return std::exchange(dense_[block], run1);
}

void BlockRunTrace::push(BlockId block, std::uint64_t count) {
  if (count == 0) return;
  accesses_ += count;
  if (!runs_.empty() && last_block() == block) {
    PackedRun& last = runs_.back();
    const std::uint64_t top_up = std::min(count, kMaxRunCount - last.count);
    last.count += static_cast<std::uint32_t>(top_up);
    count -= top_up;
  }
  while (count != 0) {
    const std::uint64_t piece = std::min(count, kMaxRunCount);
    if (block >= kWideBlock) {
      runs_.push_back(PackedRun{kWideBlock, static_cast<std::uint32_t>(piece)});
      wide_blocks_.push_back(block);
    } else {
      runs_.push_back(PackedRun{static_cast<std::uint32_t>(block),
                                static_cast<std::uint32_t>(piece)});
    }
    count -= piece;
  }
}

std::vector<BlockRun> BlockRunTrace::runs() const {
  std::vector<BlockRun> runs;
  std::size_t wide = 0;
  for (const PackedRun& run : runs_.view()) {
    const BlockId block = block_of(run, wide);
    if (!runs.empty() && runs.back().block == block) {
      runs.back().count += run.count;  // an over-long run's next piece
    } else {
      runs.push_back(BlockRun{block, run.count});
    }
  }
  return runs;
}

void BlockRunTrace::index_tail(BlockId block, LastSeen& last) {
  if (runs_.size() >= kMaxIndexedRuns) {
    steps_.clear();  // unindexable: generic replay
    return;
  }
  for (std::size_t i = steps_.size(); i < runs_.size(); ++i) {
    steps_.push_back(
        ReplayStep{last.exchange(block, static_cast<std::uint32_t>(i + 1))});
  }
}

void BlockRunTrace::ensure_replay_index() {
  if (has_replay_index() || runs_.empty()) return;
  steps_.clear();
  if (runs_.size() >= kMaxIndexedRuns) return;  // unindexable
  LastSeen last;
  std::size_t wide = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const BlockId block = block_of(runs_[i], wide);
    steps_.push_back(
        ReplayStep{last.exchange(block, static_cast<std::uint32_t>(i + 1))});
  }
}

void BlockRunTrace::replay_into(Machine& machine) const {
  if (block_size_ != 0) {
    CADAPT_CHECK_MSG(machine.block_size() == block_size_,
                     "trace recorded at block size "
                         << block_size_ << ", machine uses "
                         << machine.block_size());
  }
  const std::uint64_t b = machine.block_size();
  std::size_t wide = 0;
  for (const PackedRun& run : runs_.view()) {
    machine.access_run(block_of(run, wide) * b, run.count);
  }
}

std::vector<BlockId> BlockRunTrace::expand() const {
  std::vector<BlockId> blocks;
  blocks.reserve(accesses_);
  std::size_t wide = 0;
  for (const PackedRun& run : runs_.view()) {
    blocks.insert(blocks.end(), run.count, block_of(run, wide));
  }
  return blocks;
}

void BlockRunRecorder::close_run(std::uint64_t end) {
  const std::uint64_t count = end - run_start_;
  if (trace_.append_indexed(run_block_, count, last_seen_)) [[likely]] {
    return;
  }
  store_run(count);
}

void BlockRunRecorder::store_run(std::uint64_t count) {
  trace_.push(run_block_, count);
  trace_.index_tail(run_block_, last_seen_);
}

void BlockRunRecorder::access_cold(WordAddr, BlockId block) {
  if (have_run_ && block == run_block_) return;  // per-access-path revisit
  const std::uint64_t seen = accesses() - 1;  // this access already counted
  if (have_run_) close_run(seen);
  run_block_ = block;
  run_start_ = seen;
  have_run_ = true;
  mark_hot(block);
}

BlockRunTrace BlockRunRecorder::take() {
  if (have_run_) {
    close_run(accesses());
    have_run_ = false;
  }
  return std::move(trace_);
}

}  // namespace cadapt::paging
