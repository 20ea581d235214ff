// Differential suite for the paging fast path (docs/PERF.md, "Paging
// fast path"). The contract is bit-identity, not approximation: the
// flat intrusive LruCache, the hot-block/access_run dispatch layers,
// and the record-once/replay-many trace walk must be observable-
// behavior-identical to the reference stack kept in
// paging/reference_lru.hpp — access for access, counter for counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/sim_data.hpp"
#include "algos/sort.hpp"

#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "core/report.hpp"
#include "engine/montecarlo.hpp"
#include "obs/recorder.hpp"
#include "paging/address_space.hpp"
#include "paging/block_run.hpp"
#include "paging/ca_machine.hpp"
#include "paging/lru_cache.hpp"
#include "paging/machine.hpp"
#include "paging/policy.hpp"
#include "paging/reference_lru.hpp"
#include "paging_test_util.hpp"
#include "profile/box_source.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cadapt {
namespace {

using paging::BlockId;
using paging::BlockRunRecorder;
using paging::BlockRunTrace;
using paging::CaConfig;
using paging::CaMachine;
using paging::LruCache;
using paging::ReferenceCaMachine;
using paging::ReferenceLruCache;
using paging::ReplayPath;

// ---- Layer 1: flat LruCache vs the node-based reference ----

// Randomized schedules of access/resize/clear, including capacity 0 and
// shrinks below the resident set: every AccessResult field, the size,
// membership, and the lifetime Stats must agree at every step.
TEST(LruDifferential, RandomizedSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const std::uint64_t universe = 1 + rng.below(96);
    LruCache flat(seed % 3);  // also start the two at capacity 0, 1, 2
    ReferenceLruCache ref(seed % 3);
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 90) {
        const BlockId block = rng.below(universe);
        const auto a = flat.access_tracking(block);
        const auto b = ref.access_tracking(block);
        EXPECT_EQ(a.hit, b.hit) << "seed " << seed << " step " << step;
        EXPECT_EQ(a.evicted, b.evicted) << "seed " << seed << " step " << step;
        if (a.evicted && b.evicted) {
          EXPECT_EQ(a.victim, b.victim) << "seed " << seed << " step " << step;
        }
      } else if (op < 96) {
        const std::uint64_t cap = rng.below(48);  // 0 allowed; often shrinks
        flat.set_capacity(cap);
        ref.set_capacity(cap);
      } else {
        flat.clear();
        ref.clear();
      }
      ASSERT_EQ(flat.size(), ref.size()) << "seed " << seed << " step " << step;
      const BlockId probe = rng.below(universe);
      EXPECT_EQ(flat.contains(probe), ref.contains(probe));
      expect_stats_eq(flat.stats(), ref.stats());
    }
  }
}

// The shared-cache scheduler derives per-process occupancy counts from
// access_tracking victims (sched/shared_cache.cpp). Mirror that
// bookkeeping on both implementations: identical victims imply
// identical occupancy at every step.
TEST(LruDifferential, SchedOccupancyFromVictims) {
  constexpr std::size_t kProcs = 3;
  const auto tag = [](std::size_t p, BlockId b) {
    return (static_cast<BlockId>(p) << 48) | b;
  };
  const auto owner_of = [](BlockId tagged) {
    return static_cast<std::size_t>(tagged >> 48);
  };
  LruCache flat(24);
  ReferenceLruCache ref(24);
  std::vector<std::uint64_t> occ_flat(kProcs, 0), occ_ref(kProcs, 0);
  util::Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t p = static_cast<std::size_t>(rng.below(kProcs));
    const BlockId block = tag(p, rng.below(40));
    const auto a = flat.access_tracking(block);
    const auto b = ref.access_tracking(block);
    ASSERT_EQ(a.hit, b.hit);
    ASSERT_EQ(a.evicted, b.evicted);
    if (!a.hit) ++occ_flat[p];
    if (!b.hit) ++occ_ref[p];
    if (a.evicted) --occ_flat[owner_of(a.victim)];
    if (b.evicted) --occ_ref[owner_of(b.victim)];
    ASSERT_EQ(occ_flat, occ_ref) << "step " << step;
  }
}

// ---- Layer 2: CaMachine dispatch (hot-block + access_run) ----

std::unique_ptr<profile::BoxSource> random_boxes(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<profile::BoxSize> boxes;
  for (int i = 0; i < 37; ++i) boxes.push_back(1 + rng.below(40));
  return std::make_unique<profile::CyclingSource>([boxes] {
    return std::make_unique<profile::VectorSource>(boxes);
  });
}

// A word stream with realistic structure: sequential stretches, repeats,
// and random jumps — exercising the repeat shortcut, access_run, and the
// cold path.
template <typename Touch>
void drive_random_stream(std::uint64_t seed, Touch&& touch) {
  util::Rng rng(seed);
  std::uint64_t addr = 0;
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 4) {
      addr = rng.below(1 << 12);  // jump
      touch(addr, 1);
    } else if (op < 8) {
      touch(addr, 1 + rng.below(6));  // dwell in place (repeat hits)
    } else {
      for (int i = 0; i < 8; ++i) touch(++addr, 1);  // sequential stretch
    }
  }
}

TEST(CaMachineDifferential, FastVsPerAccessVsReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CaMachine fast(random_boxes(seed), 8, /*record_boxes=*/true);
    CaMachine per_access(random_boxes(seed), 8, /*record_boxes=*/true);
    per_access.set_per_access(true);
    ReferenceCaMachine reference(random_boxes(seed), 8);
    const auto touch = [&](std::uint64_t addr, std::uint64_t count) {
      fast.access_run(addr, count);
      for (std::uint64_t i = 0; i < count; ++i) per_access.access(addr);
      for (std::uint64_t i = 0; i < count; ++i) reference.access(addr);
    };
    drive_random_stream(seed, touch);
    EXPECT_GT(fast.fast_hits(), 0u);  // the shortcut actually engaged
    EXPECT_EQ(per_access.fast_hits(), 0u);
    EXPECT_EQ(fast.accesses(), per_access.accesses());
    EXPECT_EQ(fast.accesses(), reference.accesses());
    EXPECT_EQ(fast.misses(), per_access.misses());
    EXPECT_EQ(fast.misses(), reference.misses());
    EXPECT_EQ(fast.boxes_started(), per_access.boxes_started());
    EXPECT_EQ(fast.boxes_started(), reference.boxes_started());
    EXPECT_EQ(fast.misses_in_current_box(),
              per_access.misses_in_current_box());
    EXPECT_EQ(fast.current_box_size(), reference.current_box_size());
    expect_stats_eq(fast.cache_stats(), per_access.cache_stats());
    expect_stats_eq(fast.cache_stats(), reference.cache_stats());
    EXPECT_EQ(fast.box_log(), per_access.box_log());
  }
}

// ---- Layer 3: record-once/replay-many ----

BlockRunTrace random_trace(std::uint64_t seed, int runs) {
  BlockRunRecorder recorder(8);
  util::Rng rng(seed);
  for (int i = 0; i < runs; ++i) {
    recorder.access_run(rng.below(1 << 12) * 8, 1 + rng.below(12));
  }
  return recorder.take();
}

// replay_trace (fast walk), replay_into on a per-access machine, and a
// direct word-by-word run of the expanded stream must agree on every
// counter, including the box log.
TEST(TraceReplayDifferential, WalkVsGenericVsDirect) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const BlockRunTrace trace = random_trace(seed, 5000);
    ASSERT_TRUE(trace.has_replay_index());

    CaMachine walk(random_boxes(seed), 8, /*record_boxes=*/true);
    walk.replay_trace(trace);
    EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);

    CaMachine generic(random_boxes(seed), 8, /*record_boxes=*/true);
    EXPECT_EQ(generic.last_replay_path(), ReplayPath::kNone);
    generic.set_per_access(true);
    generic.replay_trace(trace);  // per-access forces the generic path
    EXPECT_EQ(generic.last_replay_path(), ReplayPath::kGenericPerAccess);
    EXPECT_EQ(generic.fast_hits(), 0u);

    CaMachine direct(random_boxes(seed), 8, /*record_boxes=*/true);
    for (const BlockId block : trace.expand()) direct.access(block * 8);

    for (const CaMachine* m : {&generic, &direct}) {
      EXPECT_EQ(walk.accesses(), m->accesses());
      EXPECT_EQ(walk.misses(), m->misses());
      EXPECT_EQ(walk.boxes_started(), m->boxes_started());
      EXPECT_EQ(walk.misses_in_current_box(), m->misses_in_current_box());
      EXPECT_EQ(walk.current_box_size(), m->current_box_size());
      expect_stats_eq(walk.cache_stats(), m->cache_stats());
      EXPECT_EQ(walk.box_log(), m->box_log());
    }
  }
}

TEST(TraceReplayDifferential, EmptyTraceIsNoop) {
  BlockRunTrace trace(8);
  EXPECT_FALSE(trace.has_replay_index());
  CaMachine machine(random_boxes(1), 8);
  machine.replay_trace(trace);
  EXPECT_EQ(machine.accesses(), 0u);
  EXPECT_EQ(machine.misses(), 0u);
  EXPECT_EQ(machine.boxes_started(), 1u);  // the box opened at construction
}

// A hand-pushed trace has no index (push invalidates it): replay_trace
// must fall back to the generic path and still be exact; after
// ensure_replay_index the fast walk must agree.
TEST(TraceReplayDifferential, UnindexedTraceFallsBack) {
  BlockRunTrace trace(8);
  util::Rng rng(17);
  for (int i = 0; i < 3000; ++i) trace.push(rng.below(200), 1 + rng.below(5));
  EXPECT_FALSE(trace.has_replay_index());

  CaMachine fallback(random_boxes(17), 8);
  fallback.replay_trace(trace);
  EXPECT_EQ(fallback.last_replay_path(), ReplayPath::kGenericUnindexed);

  trace.ensure_replay_index();
  ASSERT_TRUE(trace.has_replay_index());
  CaMachine walk(random_boxes(17), 8);
  walk.replay_trace(trace);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);

  EXPECT_EQ(walk.accesses(), fallback.accesses());
  EXPECT_EQ(walk.misses(), fallback.misses());
  EXPECT_EQ(walk.boxes_started(), fallback.boxes_started());
  expect_stats_eq(walk.cache_stats(), fallback.cache_stats());
}

// Sparse block ids (beyond the dense direct-mapped table) take the
// hash-map indexing path; the walk must stay exact.
TEST(TraceReplayDifferential, SparseBlockIdsIndexAndReplay) {
  BlockRunRecorder recorder(8);
  util::Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const BlockId block = rng.below(1u << 30);  // sparse id space
    recorder.access_run(block * 8, 1 + rng.below(4));
  }
  BlockRunTrace trace = recorder.take();
  ASSERT_TRUE(trace.has_replay_index());

  CaMachine walk(random_boxes(23), 8);
  walk.replay_trace(trace);
  CaMachine direct(random_boxes(23), 8);
  for (const BlockId block : trace.expand()) direct.access(block * 8);
  EXPECT_EQ(walk.misses(), direct.misses());
  EXPECT_EQ(walk.boxes_started(), direct.boxes_started());
  expect_stats_eq(walk.cache_stats(), direct.cache_stats());
}

// A machine that already served accesses cannot take the fast walk (its
// cache holds state the walk does not model): replay_trace must detect
// this and stay exact via the generic path.
TEST(TraceReplayDifferential, UsedMachineFallsBack) {
  const BlockRunTrace trace = random_trace(31, 2000);
  CaMachine replayed(random_boxes(31), 8);
  replayed.access(7 * 8);
  replayed.replay_trace(trace);
  EXPECT_EQ(replayed.last_replay_path(), ReplayPath::kGenericUsedMachine);

  CaMachine direct(random_boxes(31), 8);
  direct.access(7 * 8);
  for (const BlockId block : trace.expand()) direct.access(block * 8);

  EXPECT_EQ(replayed.accesses(), direct.accesses());
  EXPECT_EQ(replayed.misses(), direct.misses());
  EXPECT_EQ(replayed.boxes_started(), direct.boxes_started());
  expect_stats_eq(replayed.cache_stats(), direct.cache_stats());
}

// With a PagingRecorder attached the machine is pinned to the per-access
// path; replay_trace must route through it so the recorder's per-access
// tallies stay byte-identical to a direct run.
TEST(TraceReplayDifferential, RecorderForcesPerAccessReplay) {
  const BlockRunTrace trace = random_trace(43, 2000);

  obs::PagingRecorder rec_replay;
  CaMachine replayed(random_boxes(43), 8, /*record_boxes=*/false,
                     &rec_replay);
  replayed.replay_trace(trace);
  EXPECT_EQ(replayed.last_replay_path(), ReplayPath::kGenericRecorder);

  obs::PagingRecorder rec_direct;
  CaMachine direct(random_boxes(43), 8, /*record_boxes=*/false, &rec_direct);
  for (const BlockId block : trace.expand()) direct.access(block * 8);

  EXPECT_EQ(replayed.misses(), direct.misses());
  std::ostringstream a, b;
  core::print_paging_summary(a, rec_replay);
  core::print_paging_summary(b, rec_direct);
  EXPECT_EQ(a.str(), b.str());
}

// The box-log cap must not perturb anything the replay walk reports:
// same retained suffix, same drop count as the per-access path.
TEST(TraceReplayDifferential, BoxLogCapMatches) {
  const BlockRunTrace trace = random_trace(53, 8000);
  CaMachine walk(random_boxes(53), 8, /*record_boxes=*/true);
  walk.set_box_log_cap(16);
  walk.replay_trace(trace);

  CaMachine direct(random_boxes(53), 8, /*record_boxes=*/true);
  direct.set_box_log_cap(16);
  for (const BlockId block : trace.expand()) direct.access(block * 8);

  EXPECT_GT(walk.box_log_dropped(), 0u);
  EXPECT_EQ(walk.box_log_dropped(), direct.box_log_dropped());
  EXPECT_EQ(walk.box_log(), direct.box_log());
}

// A machine config whose cache can evict before the box runs out
// (docs/PAGING.md) invalidates the fast walk's never-evict argument:
// replay_trace must detect it, report kGenericConfig, and match a direct
// run of the expanded stream counter for counter — for a set-associative
// policy (a set can fill before the cache does), a scaled tier-1 share,
// and a two-tier machine.
TEST(TraceReplayDifferential, PolicyConfigFallsBack) {
  const BlockRunTrace trace = random_trace(61, 3000);
  ASSERT_TRUE(trace.has_replay_index());
  CaConfig assoc_config;
  assoc_config.policy = paging::parse_policy_token("assoc:4");
  CaConfig scaled_config;
  scaled_config.tier1_num = 1;
  scaled_config.tier1_den = 2;
  CaConfig tiered_config;
  tiered_config.tier2_blocks = 64;
  for (const CaConfig& config : {assoc_config, scaled_config, tiered_config}) {
    ASSERT_FALSE(config.evicts_only_at_rollover());
    CaMachine replayed(random_boxes(61), 8, /*record_boxes=*/true, nullptr,
                       config);
    replayed.replay_trace(trace);
    EXPECT_EQ(replayed.last_replay_path(), ReplayPath::kGenericConfig);

    CaMachine direct(random_boxes(61), 8, /*record_boxes=*/true, nullptr,
                     config);
    for (const BlockId block : trace.expand()) direct.access(block * 8);
    expect_ca_machines_eq(replayed, direct);
  }
}

// Boxes of 1..8 blocks, mostly size 1: a rollover every few misses.
std::unique_ptr<profile::BoxSource> tiny_boxes(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<profile::BoxSize> boxes;
  for (int i = 0; i < 29; ++i) {
    boxes.push_back(rng.below(3) == 0 ? 1 + rng.below(8) : 1);
  }
  return std::make_unique<profile::CyclingSource>([boxes] {
    return std::make_unique<profile::VectorSource>(boxes);
  });
}

// At full share on one tier a fully associative cache of x blocks cannot
// evict before its box's x misses run out, so clock, arc and car take
// the fast walk too. The walk must equal, counter for counter (cache
// stats and their rollover evictions included), a direct per-access run
// of the same config, which drives the real policy cache.
TEST(TraceReplayDifferential, FullShareFullyAssociativeWalks) {
  for (const char* token : {"clock", "arc", "car"}) {
    CaConfig config;
    config.policy = paging::parse_policy_token(token);
    ASSERT_TRUE(config.evicts_only_at_rollover()) << token;
    ASSERT_FALSE(config.plain_lru()) << token;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const BlockRunTrace trace = random_trace(100 + seed, 4000);
      for (const bool tiny : {true, false}) {
        const auto boxes = [&] {
          return tiny ? tiny_boxes(seed) : random_boxes(seed);
        };
        CaMachine walk(boxes(), 8, /*record_boxes=*/true, nullptr, config);
        walk.replay_trace(trace);
        EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk) << token;

        CaMachine direct(boxes(), 8, /*record_boxes=*/true, nullptr, config);
        direct.set_per_access(true);
        for (const BlockId block : trace.expand()) direct.access(block * 8);

        SCOPED_TRACE(std::string(token) + " seed " + std::to_string(seed) +
                     (tiny ? " tiny" : " random"));
        EXPECT_GT(direct.cache_stats().evictions, tiny ? 1000u : 50u);
        expect_ca_machines_eq(walk, direct);
      }
    }
  }
}

// The default config must keep the fast walk — the config fallback
// check is first in precedence, so pin that it does not misfire.
TEST(TraceReplayDifferential, DefaultConfigKeepsFastWalk) {
  const BlockRunTrace trace = random_trace(67, 1000);
  CaMachine walk(random_boxes(67), 8, /*record_boxes=*/false, nullptr,
                 CaConfig{});
  walk.replay_trace(trace);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);
}

// A box hook must see real cache state (fault injection), so it too
// refuses the walk.
TEST(TraceReplayDifferential, BoxHookFallsBack) {
  const BlockRunTrace trace = random_trace(71, 1000);
  CaMachine hooked(random_boxes(71), 8);
  hooked.set_box_hook([](std::uint64_t, std::uint64_t) {});
  hooked.replay_trace(trace);
  EXPECT_EQ(hooked.last_replay_path(), ReplayPath::kGenericBoxHook);

  CaMachine direct(random_boxes(71), 8);
  for (const BlockId block : trace.expand()) direct.access(block * 8);
  EXPECT_EQ(hooked.misses(), direct.misses());
  EXPECT_EQ(hooked.boxes_started(), direct.boxes_started());
}

// replay_path_name backs the CLI's fallback-reason diagnostics; keep
// the strings stable.
TEST(TraceReplayDifferential, ReplayPathNames) {
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kNone), "none");
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kFastWalk), "fast-walk");
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kGenericConfig),
               "generic:config");
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kGenericUnindexed),
               "generic:unindexed");
}

// ---- Trace storage and the online replay index ----

static_assert(sizeof(BlockRunTrace::PackedRun) +
                  sizeof(BlockRunTrace::ReplayStep) ==
              12);

// The offline index over the same stored runs: rebuild the trace from
// its logical runs by push() (same storage rule) and index it in a pass.
std::vector<std::uint32_t> offline_index(const BlockRunTrace& trace) {
  BlockRunTrace copy(trace.block_size());
  for (const paging::BlockRun& run : trace.runs()) {
    copy.push(run.block, run.count);
  }
  EXPECT_FALSE(copy.has_replay_index());
  copy.ensure_replay_index();
  std::vector<std::uint32_t> prev;
  for (const auto& step : copy.replay_steps()) prev.push_back(step.prev1);
  return prev;
}

std::vector<std::uint32_t> index_of(const BlockRunTrace& trace) {
  std::vector<std::uint32_t> prev;
  for (const auto& step : trace.replay_steps()) prev.push_back(step.prev1);
  return prev;
}

// The index by definition, over the logical runs (no over-long runs).
std::vector<std::uint32_t> naive_index(const BlockRunTrace& trace) {
  const std::vector<paging::BlockRun> runs = trace.runs();
  std::vector<std::uint32_t> prev(runs.size(), 0);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i; j-- > 0;) {
      if (runs[j].block == runs[i].block) {
        prev[i] = static_cast<std::uint32_t>(j + 1);
        break;
      }
    }
  }
  return prev;
}

// The recorder indexes each run as it closes. Its index must equal the
// offline pass on the same runs, and the index by definition, for dense
// ids (direct-mapped table), sparse ids (hash map), a mix that moves
// hashed ids into the growing table, and ids straddling the 32-bit
// boundary (side-table storage).
TEST(TraceIndex, RecorderIndexEqualsOffline) {
  const auto draw = [](util::Rng& rng, int kind) -> BlockId {
    switch (kind) {
      case 0: return rng.below(1 << 12);                       // dense
      case 1: return rng.below(1ull << 30);                    // sparse
      case 2:                                                  // mixed
        return rng.below(4) == 0 ? rng.below(1 << 16) : rng.below(300);
      default:                                                 // 2^32 edge
        return rng.below(2) == 0 ? 0xfffffffcull + rng.below(8)
                                 : rng.below(64);
    }
  };
  for (int kind = 0; kind < 4; ++kind) {
    BlockRunRecorder recorder(8);
    util::Rng rng(200 + static_cast<std::uint64_t>(kind));
    for (int i = 0; i < 3000; ++i) {
      recorder.access_run(draw(rng, kind) * 8, 1 + rng.below(5));
    }
    const BlockRunTrace trace = recorder.take();
    ASSERT_TRUE(trace.has_replay_index()) << "kind " << kind;
    EXPECT_EQ(index_of(trace), offline_index(trace)) << "kind " << kind;
    EXPECT_EQ(index_of(trace), naive_index(trace)) << "kind " << kind;
  }
}

// Block ids at and beyond 2^32 - 1 round-trip through storage and
// replay exactly: runs(), expand(), and the walk against a direct run.
TEST(TraceIndex, WideBlockIdsReplayExactly) {
  BlockRunRecorder recorder(8);
  const std::vector<BlockId> blocks = {
      0xfffffffeull, 0xffffffffull, 0x100000000ull, 3, 0xffffffffull,
      0x100000000ull, 0xfffffffeull, 1ull << 40, 3, 1ull << 40};
  std::vector<paging::BlockRun> want;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    recorder.access_run(blocks[i] * 8, 1 + i);
    want.push_back(paging::BlockRun{blocks[i], 1 + i});
  }
  const BlockRunTrace trace = recorder.take();
  EXPECT_EQ(trace.runs(), want);
  EXPECT_EQ(trace.stored_runs(), want.size());
  EXPECT_EQ(index_of(trace),
            (std::vector<std::uint32_t>{0, 0, 0, 0, 2, 3, 1, 0, 4, 8}));
  EXPECT_EQ(index_of(trace), offline_index(trace));

  CaMachine walk(tiny_boxes(5), 8);
  walk.replay_trace(trace);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);
  CaMachine direct(tiny_boxes(5), 8);
  for (const BlockId block : trace.expand()) direct.access(block * 8);
  expect_ca_machines_eq(walk, direct);
}

// A run longer than 2^32 - 1 accesses is stored as full pieces of
// 2^32 - 1 plus the remainder, re-merged by runs(); push() tops up the
// last piece before opening a new one. The pieces index and replay
// exactly like the run they came from.
TEST(TraceIndex, OverLongRunsSplitIntoPieces) {
  constexpr std::uint64_t kMax = BlockRunTrace::kMaxRunCount;
  BlockRunTrace trace(8);
  trace.push(3, kMax + 6);      // two pieces: kMax, 6
  trace.push(7, 1);
  trace.push(3, 5);
  trace.push(3, 2 * kMax);      // tops up to kMax, then kMax, then 5
  trace.push(1ull << 40, kMax + 1);  // wide id, two pieces
  EXPECT_EQ(trace.runs(),
            (std::vector<paging::BlockRun>{{3, kMax + 6},
                                           {7, 1},
                                           {3, 2 * kMax + 5},
                                           {1ull << 40, kMax + 1}}));
  EXPECT_EQ(trace.stored_runs(), 8u);
  EXPECT_EQ(trace.accesses(), 4 * kMax + 13);
  BlockRunTrace two_full(8);
  two_full.push(9, 2 * kMax);
  EXPECT_EQ(two_full.stored_runs(), 2u);
  trace.ensure_replay_index();
  ASSERT_TRUE(trace.has_replay_index());
  EXPECT_EQ(index_of(trace),
            (std::vector<std::uint32_t>{0, 1, 0, 2, 4, 5, 0, 7}));

  // The walk against the generic replay of the same trace (unindexed
  // copy; the plain machine retires each hot run in O(1)).
  CaMachine walk(tiny_boxes(9), 8);
  walk.replay_trace(trace);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);
  BlockRunTrace unindexed(8);
  for (const paging::BlockRun& run : trace.runs()) {
    unindexed.push(run.block, run.count);
  }
  CaMachine generic(tiny_boxes(9), 8);
  generic.replay_trace(unindexed);
  EXPECT_EQ(generic.last_replay_path(), ReplayPath::kGenericUnindexed);
  expect_ca_machines_eq(walk, generic);
}

// Capture builds the index online: the runs closed so far are indexed
// before take() (which makes no second pass), and a push() that opens a
// new stored run invalidates the index while one that extends the last
// run keeps it.
TEST(TraceIndex, RecorderTraceArrivesIndexed) {
  BlockRunRecorder recorder(8);
  util::Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    recorder.access_run(rng.below(64) * 8, 1 + rng.below(3));
    if (recorder.trace().stored_runs() != 0) {
      ASSERT_TRUE(recorder.trace().has_replay_index()) << "run " << i;
    }
  }
  const std::uint64_t closed = recorder.trace().stored_runs();
  BlockRunTrace trace = recorder.take();
  EXPECT_EQ(trace.stored_runs(), closed + 1);  // take() closes the open run
  ASSERT_TRUE(trace.has_replay_index());

  const BlockId last = trace.runs().back().block;
  trace.push(last, 4);
  EXPECT_TRUE(trace.has_replay_index());
  trace.push(last + 1, 1);
  EXPECT_FALSE(trace.has_replay_index());
}

// ---- Recycled trace storage (BlockRunTrace's per-thread spare) ----

using Workload = void (*)(paging::Machine&);

// The logical runs by definition, for checking what a capture stored:
// each block change opens a run, and the access counter closes it.
class RunLog final : public paging::Machine {
 public:
  RunLog() : Machine(8) {}
  std::uint64_t misses() const override { return 0; }
  std::vector<paging::BlockRun> runs() const {
    std::vector<paging::BlockRun> runs = runs_;
    if (!runs.empty()) runs.back().count = accesses() - start_;
    return runs;
  }

 protected:
  void access_cold(paging::WordAddr, BlockId block) override {
    if (!runs_.empty()) {
      if (runs_.back().block == block) return;
      runs_.back().count = accesses() - 1 - start_;
    }
    runs_.push_back(paging::BlockRun{block, 0});
    start_ = accesses() - 1;
    mark_hot(block);
  }

 private:
  std::vector<paging::BlockRun> runs_;
  std::uint64_t start_ = 0;
};

void dense_runs(paging::Machine& recorder) {
  util::Rng rng(301);
  for (int i = 0; i < 4000; ++i) {
    recorder.access_run(rng.below(1 << 10) * 8, 1 + rng.below(6));
  }
}

// Ids on both sides of 2^32 - 1 (side-table storage) and sparse ids
// (hash map), between dense ones.
void wide_runs(paging::Machine& recorder) {
  util::Rng rng(302);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t pick = rng.below(4);
    const BlockId block = pick == 0   ? 0xfffffffcull + rng.below(8)
                          : pick == 1 ? rng.below(1ull << 40)
                                      : rng.below(300);
    recorder.access_run(block * 8, 1 + rng.below(4));
  }
}

// Runs at, just past and far past 2^32 - 1 accesses (split into
// pieces), between ordinary ones.
void long_runs(paging::Machine& recorder) {
  constexpr std::uint64_t kMax = BlockRunTrace::kMaxRunCount;
  const std::vector<std::pair<BlockId, std::uint64_t>> runs = {
      {3, kMax}, {7, 1}, {3, kMax + 1}, {5, 2}, {7, 3 * kMax + 2},
      {3, 4},    {9, kMax - 1}, {5, 1}};
  for (int round = 0; round < 3; ++round) {
    for (const auto& [block, count] : runs) {
      recorder.access_run((block + static_cast<BlockId>(round)) * 8, count);
    }
  }
}

// Every access through the virtual per-access path.
void per_access_runs(paging::Machine& recorder) {
  recorder.set_per_access(true);
  util::Rng rng(304);
  for (int i = 0; i < 3000; ++i) {
    recorder.access_run(rng.below(500) * 8, 1 + rng.below(5));
  }
}

constexpr Workload kWorkloads[] = {dense_runs, wide_runs, long_runs,
                                   per_access_runs};

BlockRunTrace capture(Workload workload) {
  BlockRunRecorder recorder(8);
  workload(recorder);
  return recorder.take();
}

// A capture on a thread that has never held a trace: fresh storage.
BlockRunTrace capture_on_fresh_thread(Workload workload) {
  BlockRunTrace trace;
  std::thread([&] {
    EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), 0u);
    trace = capture(workload);
  }).join();
  return trace;
}

void expect_traces_eq(const BlockRunTrace& got, const BlockRunTrace& want) {
  EXPECT_EQ(got.runs(), want.runs());
  EXPECT_EQ(index_of(got), index_of(want));
  EXPECT_EQ(got.accesses(), want.accesses());
  EXPECT_EQ(got.stored_runs(), want.stored_runs());
  EXPECT_EQ(got.has_replay_index(), want.has_replay_index());
  EXPECT_EQ(got.block_size(), want.block_size());
}

// A trace captured into recycled storage equals one captured on fresh
// storage, whether the spare came from a larger or a smaller trace, for
// dense, wide and over-long runs and a per-access recorder. The fresh
// capture stores the runs by definition, indexed as the offline pass
// (push() + ensure_replay_index()) indexes them.
TEST(TraceCapture, RecycledStorageEqualsFresh) {
  const auto spare_from = [](int runs) {
    BlockRunTrace::release_thread_spare();
    (void)random_trace(400 + static_cast<std::uint64_t>(runs), runs);
    EXPECT_GT(BlockRunTrace::thread_spare_bytes(), 0u);
  };
  for (std::size_t w = 0; w < std::size(kWorkloads); ++w) {
    const BlockRunTrace fresh = capture_on_fresh_thread(kWorkloads[w]);
    RunLog log;
    kWorkloads[w](log);
    EXPECT_EQ(fresh.runs(), log.runs()) << "workload " << w;
    EXPECT_EQ(fresh.accesses(), log.accesses()) << "workload " << w;
    ASSERT_TRUE(fresh.has_replay_index()) << "workload " << w;
    EXPECT_EQ(index_of(fresh), offline_index(fresh)) << "workload " << w;
    for (const int spare_runs : {40000, 3}) {  // larger, then smaller
      spare_from(spare_runs);
      BlockRunRecorder recorder(8);
      EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), 0u);  // taken
      kWorkloads[w](recorder);
      const BlockRunTrace recycled = recorder.take();
      SCOPED_TRACE("workload " + std::to_string(w) + ", spare of " +
                   std::to_string(spare_runs) + " runs");
      expect_traces_eq(recycled, fresh);
    }
  }
  BlockRunTrace::release_thread_spare();
}

// The same on a real program: a recycled merge sort capture walks to
// exactly the counters of a direct run of the program.
TEST(TraceCapture, RecycledProgramWalkMatchesDirect) {
  const auto sort_into = [](paging::Machine& machine) {
    paging::AddressSpace space(8);
    algos::SimVector<std::int64_t> data(machine, space, 2048);
    util::Rng rng(55);
    for (std::size_t i = 0; i < 2048; ++i) {
      data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 20));
    }
    algos::merge_sort(machine, space, data);
  };
  BlockRunTrace::release_thread_spare();
  (void)random_trace(56, 50000);  // a larger spare, with stale runs
  BlockRunRecorder recorder(8);
  sort_into(recorder);
  const BlockRunTrace trace = recorder.take();
  ASSERT_TRUE(trace.has_replay_index());
  EXPECT_EQ(index_of(trace), naive_index(trace));

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    CaMachine walk(random_boxes(seed), 8, /*record_boxes=*/true);
    walk.replay_trace(trace);
    EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);
    CaMachine direct(random_boxes(seed), 8, /*record_boxes=*/true);
    sort_into(direct);
    expect_ca_machines_eq(walk, direct);
  }
  BlockRunTrace::release_thread_spare();
}

// A thread holds at most one spare: when two traces die, the larger
// one's storage stays and the other is freed, in either order; a
// recorder takes the spare; each thread has its own.
TEST(TraceCapture, ThreadKeepsOneSpare) {
  const auto spare_after = [](int runs) {
    BlockRunTrace::release_thread_spare();
    (void)random_trace(500, runs);
    return BlockRunTrace::thread_spare_bytes();
  };
  const std::size_t large = spare_after(30000);
  const std::size_t small = spare_after(100);
  ASSERT_GT(small, 0u);
  ASSERT_GT(large, small);

  for (const bool large_first : {true, false}) {
    BlockRunTrace::release_thread_spare();
    {
      std::optional<BlockRunTrace> a = random_trace(500, 30000);
      std::optional<BlockRunTrace> b = random_trace(500, 100);
      EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), 0u);
      if (large_first) {
        a.reset();
        b.reset();
      } else {
        b.reset();
        a.reset();
      }
    }
    EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), large)
        << "large first: " << large_first;
  }

  // A trace that dies on another thread parks there, not here.
  BlockRunTrace::release_thread_spare();
  BlockRunTrace other = random_trace(500, 100);
  std::thread([moved = std::move(other), small]() mutable {
    { BlockRunTrace dies = std::move(moved); }
    EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), small);
    BlockRunTrace::release_thread_spare();
  }).join();
  EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), 0u);

  // A recorder takes the spare; its unused trace hands it back.
  (void)random_trace(500, 100);
  {
    BlockRunRecorder recorder(8);
    EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), 0u);
  }
  EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), small);
  BlockRunTrace::release_thread_spare();
  EXPECT_EQ(BlockRunTrace::thread_spare_bytes(), 0u);
}

// ---- Cell-level bit identity through the campaign runner ----

engine::McSummary run_cell_summary(bool capture, bool per_access,
                                   std::size_t threads,
                                   const std::string& sort = "funnel") {
  campaign::Cell cell;
  cell.sort = sort;
  cell.profile = campaign::parse_sort_profile_token("uniform:4:64");
  cell.seed = 7;
  campaign::CellRunOptions options;
  options.keys = 2048;
  options.block = 8;
  options.timing = false;
  options.capture_trace = capture;
  options.per_access = per_access;
  engine::McOptions mc;
  mc.trials = 12;
  mc.seed = cell.seed;
  util::ThreadPool pool(threads);
  mc.pool = &pool;
  return engine::run_monte_carlo_robust(
      mc, campaign::make_program_runner(cell, options));
}

// Capture/replay is bit-identical to its per-access reference across
// thread-pool sizes 1/2/8: the trace is captured under std::call_once on
// whichever trial gets there first, and every trial (including the
// first) consumes the shared trace.
TEST(CellReplayDifferential, PoolSizesAndPerAccessAgree) {
  for (const std::string sort : {"funnel", "mm:32"}) {
    const auto base = run_cell_summary(/*capture=*/true, /*per_access=*/false,
                                       /*threads=*/1, sort);
    EXPECT_EQ(base.failed, 0u);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      expect_summaries_eq(base,
                          run_cell_summary(true, false, threads, sort));
    }
    // The per-access reference replay (generic run-by-run path).
    expect_summaries_eq(base, run_cell_summary(true, true, 1, sort));
  }
}

// campaign::run_cell with workers >= 2 runs a replayable cell's capturing
// trial 0 alone and fans out only the replays; an adaptive cell, which
// cannot replay, fans out every trial. Either way the records equal the
// sequential loop's.
TEST(CellReplayDifferential, RunCellRecordsEqualAtEveryWorkerCount) {
  for (const std::string sort : {"funnel", "mm:32", "adaptive"}) {
    campaign::Cell cell;
    cell.sort = sort;
    cell.profile = campaign::parse_sort_profile_token("uniform:4:64");
    cell.seed = 7;
    cell.trials = 6;
    campaign::CellRunOptions options;
    options.keys = 2048;
    options.block = 8;
    options.timing = false;
    options.capture_trace = true;
    options.workers = 1;
    const std::vector<robust::TrialRecord> base =
        campaign::run_cell(cell, options);
    ASSERT_EQ(base.size(), cell.trials) << sort;
    for (const std::uint64_t workers : {2u, 4u}) {
      options.workers = workers;
      EXPECT_EQ(campaign::run_cell(cell, options), base)
          << sort << " workers=" << workers;
    }
  }
}

// Without capture the fast dispatch path must match the per-access
// reference across pool sizes too (per-trial inputs, not fixed ones).
TEST(CellReplayDifferential, DirectFastMatchesPerAccess) {
  const auto fast = run_cell_summary(/*capture=*/false, /*per_access=*/false,
                                     /*threads=*/8);
  expect_summaries_eq(fast, run_cell_summary(false, true, 2));
  expect_summaries_eq(fast, run_cell_summary(false, false, 1));
}

// adaptive queries current_box_size(), so its stream is profile-
// dependent and cannot be replayed; capture mode must fall back to
// per-trial direct runs (with the cell-fixed input) and still be
// deterministic across pools and dispatch modes.
TEST(CellReplayDifferential, AdaptiveCaptureFallsBackDeterministically) {
  const auto base =
      run_cell_summary(true, false, 1, "adaptive");
  EXPECT_EQ(base.failed, 0u);
  expect_summaries_eq(base, run_cell_summary(true, false, 8, "adaptive"));
  expect_summaries_eq(base, run_cell_summary(true, true, 2, "adaptive"));
}

}  // namespace
}  // namespace cadapt
