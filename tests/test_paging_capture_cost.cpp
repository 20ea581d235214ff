// Counted-cost gate for trace capture (docs/PERF.md, "Layer 3"): a
// capture writes into the storage of the previous trace that died on its
// thread, so a thread's second capture faults almost no pages in. The
// gate counts page faults, not time, so it holds on a loaded host. Like
// the rest of the perf lane it is meant for optimized builds: under
// ThreadSanitizer the runtime's own memory dominates the count.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>

#include "algos/sim_data.hpp"
#include "algos/sort.hpp"
#include "paging/address_space.hpp"
#include "paging/block_run.hpp"
#include "util/random.hpp"

namespace cadapt {
namespace {

std::int64_t thread_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

struct Capture {
  std::int64_t faults = 0;
  std::uint64_t trace_bytes = 0;
};

// One capture of merge2 on 65536 keys at block 8, inputs drawn as the
// cell runner draws them: ~4.9M runs, a ~59 MB trace. Counts the
// thread's faults from the recorder's construction to the trace's end.
Capture capture_merge2() {
  constexpr std::size_t kKeys = 65536;
  Capture result;
  const std::int64_t before = thread_minor_faults();
  {
    paging::BlockRunRecorder recorder(8);
    paging::AddressSpace space(8);
    algos::SimVector<std::int64_t> data(recorder, space, kKeys);
    util::Rng rng(1);
    for (std::size_t i = 0; i < kKeys; ++i) {
      data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 24));
    }
    algos::merge_sort(recorder, space, data);
    const paging::BlockRunTrace trace = recorder.take();
    result.trace_bytes = trace.stored_runs() *
                         (sizeof(paging::BlockRunTrace::PackedRun) +
                          sizeof(paging::BlockRunTrace::ReplayStep));
  }
  result.faults = thread_minor_faults() - before;
  return result;
}

// The first capture on a thread with no spare faults its trace in
// (~15k pages); the second must take under 10% of that. Where huge
// pages back the trace the first capture faults far fewer than one page
// per 4 KiB, so the trace's 4 KiB page count is the floor of the
// reference.
TEST(TraceCaptureCost, SecondCaptureFaultsUnderTenthOfFirst) {
  paging::BlockRunTrace::release_thread_spare();
  const Capture first = capture_merge2();
  const Capture second = capture_merge2();
  ASSERT_EQ(first.trace_bytes, second.trace_bytes);
  const auto pages = static_cast<std::int64_t>(first.trace_bytes / 4096);
  EXPECT_GT(pages, 10000);
  const std::int64_t reference = std::max(first.faults, pages);
  EXPECT_LT(second.faults * 10, reference)
      << "first capture " << first.faults << " faults, second "
      << second.faults << " (trace " << pages << " pages)";
  paging::BlockRunTrace::release_thread_spare();
}

}  // namespace
}  // namespace cadapt
