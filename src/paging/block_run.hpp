// Compressed block-run traces: record once, replay many (docs/PERF.md,
// "Paging fast path").
//
// A deterministic algorithm whose access stream does not depend on the
// machine's paging state (every cache-oblivious kernel in src/algos —
// but NOT adaptive_merge_sort, which queries current_box_size()) touches
// the same block sequence on every trial of a Monte-Carlo cell. Running
// it once through a BlockRunRecorder captures that sequence as
// coalesced BlockRun{block, count} stretches; replay_into() then drives
// any number of machines (one per sampled profile) through
// Machine::access_run at O(runs) cost — no algorithm re-execution, no
// per-word dispatch.
//
// Bit-identity contract: the replayed machine sees the exact block
// sequence of the original run, so every counter a block-granular
// machine exposes (misses, boxes, accesses, cache stats) matches a
// direct simulation exactly; tests/test_paging_fast.cpp proves this
// across thread pools 1/2/8. Replay addresses the first word of each
// block — only word-granular observers (TraceRecorder) can tell.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "paging/machine.hpp"

namespace cadapt::paging {

/// `count` consecutive accesses, all inside block `block`.
struct BlockRun {
  BlockId block = 0;
  std::uint64_t count = 0;

  friend bool operator==(const BlockRun&, const BlockRun&) = default;
};

/// A growable array of trivially copyable T on malloc/realloc. Unlike
/// std::vector it never copies into a fresh buffer to grow: glibc grows
/// large blocks in place with mremap, so one capture faults each page in
/// once instead of once per doubling. clear() keeps the capacity, which
/// is how a recycled trace (BlockRunTrace's thread spare) avoids
/// faulting its pages in again.
template <class T>
class PodBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PodBuffer() = default;
  PodBuffer(const PodBuffer&) = delete;
  PodBuffer(PodBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  PodBuffer& operator=(PodBuffer other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~PodBuffer() { std::free(data_); }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    data_[size_++] = value;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::span<const T> view() const { return {data_, size_}; }

 private:
  [[gnu::noinline]] void grow() {
    const std::size_t capacity = capacity_ < 64 ? 64 : 2 * capacity_;
    void* grown = std::realloc(data_, capacity * sizeof(T));
    if (grown == nullptr) throw std::bad_alloc();
    data_ = static_cast<T*>(grown);
    capacity_ = capacity;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// A coalesced block-access trace. push() merges adjacent runs of the
/// same block, so the logical form (runs()) is canonical: no two
/// neighboring runs share a block and every count is >= 1.
///
/// Storage is 12 bytes per stored run: an 8-byte PackedRun plus the
/// 4-byte ReplayStep of the replay index. The rule for values that do
/// not fit 32 bits keeps every trace exact:
///   - a run of more than 2^32 - 1 accesses is stored as consecutive
///     runs of the same block, each of at most 2^32 - 1 (full pieces
///     first); replay, expand() and runs() see the original run;
///   - a block id >= 2^32 - 1 is stored as kWideBlock with the id in a
///     side table (8 more bytes for that run only).
class BlockRunTrace {
 public:
  /// One stored run: 32-bit block (or kWideBlock) and 32-bit count.
  struct PackedRun {
    std::uint32_t block;
    std::uint32_t count;
  };
  static constexpr std::uint32_t kWideBlock = 0xffffffffu;
  static constexpr std::uint64_t kMaxRunCount = 0xffffffffull;

  /// One entry per stored run of the replay index that
  /// CaMachine::replay_trace consumes: prev1 = 1 + index of the nearest
  /// earlier run touching the same block, or 0 if there is none — so run
  /// i touches a block unseen since run p began iff steps[i].prev1 <= p.
  /// Kept to 4 bytes because the replay walk is memory-bound: real
  /// traces coalesce poorly (block-alternating merge and matrix streams
  /// have mean run length < 2), so the walk streams the whole index once
  /// per trial.
  struct ReplayStep {
    std::uint32_t prev1;
  };

  BlockRunTrace() = default;
  explicit BlockRunTrace(std::uint64_t block_size)
      : block_size_(block_size) {}
  BlockRunTrace(BlockRunTrace&&) noexcept = default;
  BlockRunTrace& operator=(BlockRunTrace&&) noexcept = default;
  /// Parks the storage in the calling thread's spare slot (below).
  ~BlockRunTrace();

  /// Trace storage is recycled per thread: a destroyed trace leaves its
  /// run and index buffers in the thread's one spare slot (the larger
  /// buffers win when two traces die), and the next BlockRunRecorder on
  /// that thread starts from them, cleared, so a capture writes into
  /// pages that are already resident. The bytes the calling thread holds
  /// there, and a way to hand them back to the allocator (tests, cold
  /// benchmarks).
  static std::size_t thread_spare_bytes();
  static void release_thread_spare();

  void push(BlockId block, std::uint64_t count);

  /// The logical runs, decoded from storage (tests, diagnostics).
  std::vector<BlockRun> runs() const;
  /// Runs as stored: runs().size() plus one per over-long split.
  std::uint64_t stored_runs() const { return runs_.size(); }
  std::uint64_t accesses() const { return accesses_; }
  /// Block size of the recording machine; 0 = unspecified.
  std::uint64_t block_size() const { return block_size_; }

  /// Build the replay index offline, in one pass over the stored runs.
  /// A BlockRunRecorder builds the same index online while it captures,
  /// so recorded traces arrive indexed and this is a no-op for them;
  /// afterwards any number of threads replay off the shared read-only
  /// index. A push() that adds a stored run invalidates it. A trace of
  /// >= 2^32 - 1 stored runs (prev1 would overflow) is left unindexed
  /// and replays through the generic per-run path.
  void ensure_replay_index();
  bool has_replay_index() const {
    return !runs_.empty() && steps_.size() == runs_.size();
  }
  std::span<const ReplayStep> replay_steps() const { return steps_.view(); }

  /// Drive `machine` through the trace: exactly equivalent (block-wise)
  /// to re-running the recorded algorithm against it. Checks the block
  /// sizes match when the trace carries one.
  void replay_into(Machine& machine) const;

  /// The expanded per-access block stream (tests, sched traces).
  std::vector<BlockId> expand() const;

 private:
  friend class BlockRunRecorder;

  static constexpr std::uint64_t kMaxIndexedRuns = 0xffffffffull;

  /// block -> 1 + index of the latest run touching it. AddressSpace hands
  /// out block ids densely from 0, so a direct-mapped table covers the
  /// common case without hashing; it grows on demand up to 8 slots per
  /// run seen (+1024), and genuinely sparse ids go to a hash map.
  class LastSeen {
   public:
    /// Note that run `run1 - 1` touches `block`; return the previous
    /// entry (0 if none).
    std::uint32_t exchange(BlockId block, std::uint32_t run1);
    /// The direct-mapped entry of `block`, or null if the table does not
    /// cover it yet (exchange() then decides whether to grow or hash).
    std::uint32_t* dense_slot(BlockId block) {
      return block < dense_.size() ? &dense_[block] : nullptr;
    }

   private:
    std::vector<std::uint32_t> dense_;
    std::unordered_map<BlockId, std::uint32_t> sparse_;
  };

  BlockId block_of(const PackedRun& run, std::size_t& wide) const {
    return run.block != kWideBlock ? run.block : wide_blocks_[wide++];
  }
  BlockId last_block() const {
    return runs_.back().block != kWideBlock ? runs_.back().block
                                            : wide_blocks_.back();
  }
  /// Index the stored runs not yet indexed, all of which touch `block`
  /// (the recorder calls this after each push).
  void index_tail(BlockId block, LastSeen& last);

  /// The recorder's common case, stored and indexed in one step: a run
  /// of at most kMaxRunCount accesses on a narrow block that the dense
  /// table already covers, with room left in the index. Writes one
  /// PackedRun and one ReplayStep; returns false, having written
  /// nothing, for every other run, which then takes push() +
  /// index_tail() — the one definition of the storage and indexing
  /// rules, which this shortcut matches on the runs it takes.
  /// Precondition (the recorder's invariant): the index is complete and
  /// `block` differs from the last stored run's, so push() would
  /// neither top up nor leave the index behind.
  bool append_indexed(BlockId block, std::uint64_t count, LastSeen& last) {
    const std::size_t run = runs_.size();
    std::uint32_t* const slot = last.dense_slot(block);
    if (count - 1 >= kMaxRunCount || block >= kWideBlock ||
        slot == nullptr || run + 1 >= kMaxIndexedRuns) {
      return false;
    }
    accesses_ += count;
    runs_.push_back(PackedRun{static_cast<std::uint32_t>(block),
                              static_cast<std::uint32_t>(count)});
    steps_.push_back(
        ReplayStep{std::exchange(*slot, static_cast<std::uint32_t>(run + 1))});
    return true;
  }

  /// An empty trace on the calling thread's spare storage, if any.
  static BlockRunTrace recycled(std::uint64_t block_size);

  std::uint64_t block_size_ = 0;
  std::uint64_t accesses_ = 0;
  PodBuffer<PackedRun> runs_;
  PodBuffer<ReplayStep> steps_;
  std::vector<BlockId> wide_blocks_;  ///< ids of kWideBlock runs, in order
};

/// A Machine that captures the coalesced block-run stream of whatever is
/// run against it (no paging simulated; misses() reports 0). Repeat
/// accesses ride the base-class shortcut, so capturing costs O(block
/// changes), and run lengths are recovered exactly from the access
/// counter — the recorder works identically on the per-access path.
/// Each closed run is indexed as it is stored, so the trace is complete
/// at take() with no second pass over the runs. The trace starts on the
/// thread's spare storage (BlockRunTrace::thread_spare_bytes).
class BlockRunRecorder final : public Machine {
 public:
  explicit BlockRunRecorder(std::uint64_t block_size)
      : Machine(block_size), trace_(BlockRunTrace::recycled(block_size)) {}

  std::uint64_t misses() const override { return 0; }

  /// The runs closed so far (the open run is not yet stored), indexed.
  const BlockRunTrace& trace() const { return trace_; }

  /// Finalize the pending run and move the trace out. The recorder is
  /// spent afterwards (recording into it again is undefined).
  BlockRunTrace take();

 protected:
  void access_cold(WordAddr, BlockId block) override;

 private:
  void close_run(std::uint64_t end);
  /// Every run append_indexed() declines.
  [[gnu::noinline]] void store_run(std::uint64_t count);

  BlockRunTrace trace_;
  BlockRunTrace::LastSeen last_seen_;
  BlockId run_block_ = 0;
  std::uint64_t run_start_ = 0;  ///< accesses() before the open run began
  bool have_run_ = false;
};

}  // namespace cadapt::paging
