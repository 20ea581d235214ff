// The replacement-policy zoo (docs/PAGING.md): CLOCK, ARC, CAR, and a
// limited-associativity LRU behind one observable cache contract — the
// same AccessResult/Stats/clear/resize surface as LruCache — selectable
// on CaMachine/DamMachine construction via a PolicySpec. Every policy
// ships with a deliberately naive oracle simulator
// (paging/reference_policies.hpp) and a randomized differential suite
// (tests/test_paging_policies.cpp) holding the two together, the same
// way PR 5 established the flat LruCache against reference_lru.
//
// CaConfig additionally generalizes the cache-adaptive machine to a
// two-tier memory (DRAM/SSD-like): tier 1 follows the (possibly scaled)
// square profile and is cleared at box boundaries; tier 2 is a fixed-
// size persistent cache that absorbs tier-1 spill, with asymmetric
// hit/miss costs charged against the box budget. The default CaConfig
// is bit-for-bit the historical Definition-1 machine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "paging/lru_cache.hpp"

namespace cadapt::paging {

enum class PolicyKind : std::uint8_t {
  kLru,       ///< full LRU (the historical default; LruCache fast path)
  kClock,     ///< one-bit second chance over a circular frame buffer
  kArc,       ///< Megiddo–Modha adaptive replacement (T1/T2 + ghosts)
  kCar,       ///< Bansal–Modha CLOCK with adaptive replacement
  kLruAssoc,  ///< set-associative LRU: block % S sets of <= W ways
};

/// Base spelling of the kind ("lru", "clock", "arc", "car", "assoc").
const char* policy_kind_name(PolicyKind kind);

/// A parsed policy token: lru | clock | arc | car | assoc:W (W >= 1
/// ways; assoc:1 is direct-mapped). token() renders the canonical
/// spelling used in manifests, reports, and checkpoint fingerprints.
struct PolicySpec {
  PolicyKind kind = PolicyKind::kLru;
  std::uint64_t ways = 0;  ///< kLruAssoc only; 0 otherwise

  std::string token() const;
  bool is_lru() const { return kind == PolicyKind::kLru; }
  /// Any block may occupy any frame (everything but assoc:W), so the
  /// cache cannot evict while it has a free frame.
  bool fully_associative() const { return kind != PolicyKind::kLruAssoc; }

  friend bool operator==(const PolicySpec&, const PolicySpec&) = default;
};

/// Parse "lru" | "clock" | "arc" | "car" | "assoc:W". Throws
/// util::ParseError on anything else (the manifest and CLI layers
/// re-wrap with their own context).
PolicySpec parse_policy_token(const std::string& token);

/// The observable cache contract every policy implements — identical to
/// LruCache's surface so machines and differential tests are generic
/// over the policy. Semantics shared by all implementations:
///   - access_tracking: hit flag + the evicted resident block, if any
///     (ghost-list drops are not evictions; at most one victim per
///     access);
///   - set_capacity: shrinking evicts under pressure (counted in
///     Stats::evictions), capacity 0 retains nothing;
///   - clear(): a model reset — drops everything (including any ghost
///     or adaptation state) without counting evictions.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  bool access(BlockId block) { return access_tracking(block).hit; }
  virtual LruCache::AccessResult access_tracking(BlockId block) = 0;
  virtual void set_capacity(std::uint64_t capacity_blocks) = 0;
  virtual void clear() = 0;
  virtual std::uint64_t capacity() const = 0;
  virtual std::uint64_t size() const = 0;
  virtual bool contains(BlockId block) const = 0;

  const LruCache::Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 protected:
  LruCache::Stats stats_;
};

/// Build a policy cache. LRU wraps the production LruCache; the other
/// kinds construct their dedicated implementations.
std::unique_ptr<CachePolicy> make_policy_cache(const PolicySpec& spec,
                                               std::uint64_t capacity_blocks);

/// Construction-time configuration of a CaMachine beyond Definition 1.
/// The default (LRU, full share, no tier 2) selects the historical
/// plain-LRU fast path — counter-for-counter the pre-zoo machine.
struct CaConfig {
  PolicySpec policy;

  /// Tier-1 capacity share: a box of size s installs a tier-1 cache of
  /// max(1, floor(s * num / den)) blocks (num <= den). With the full
  /// share (1/1) and a single tier, capacity equals the miss budget and
  /// a fully associative policy never evicts under pressure — which is
  /// why replacement policy is only observable below full share, with
  /// two tiers, or through a set-associative cache.
  std::uint64_t tier1_num = 1;
  std::uint64_t tier1_den = 1;

  /// Tier 2: a fixed-capacity cache (same policy as tier 1) that
  /// persists across box boundaries and absorbs tier-1 eviction spill.
  /// 0 = single-tier (the historical machine). A tier-1 miss consults
  /// tier 2 and charges tier2_hit_cost or tier2_miss_cost box-budget
  /// units (hits in tier 1 stay free); single-tier misses cost 1.
  std::uint64_t tier2_blocks = 0;
  std::uint64_t tier2_hit_cost = 1;
  std::uint64_t tier2_miss_cost = 4;

  bool two_tier() const { return tier2_blocks != 0; }
  /// True iff this config is the historical machine (plain LRU, full
  /// share, single tier) — the one CaMachine runs directly on its
  /// LruCache member.
  bool plain_lru() const {
    return policy.is_lru() && evicts_only_at_rollover();
  }
  /// True iff the only eviction a box can see is the one at its rollover
  /// (full share, single tier, fully associative policy): a box of size
  /// x installs a cache of x blocks for x misses, so it fills exactly
  /// when the box runs out. The cache's hit, miss and eviction counters
  /// are then the same for every such policy, which is what lets
  /// CaMachine::replay_trace take its fast walk.
  bool evicts_only_at_rollover() const {
    return policy.fully_associative() && !two_tier() &&
           tier1_num == tier1_den;
  }
  /// Tier-1 blocks installed for a box of size `box` (>= 1).
  std::uint64_t tier1_capacity(std::uint64_t box) const;
  /// Throws util::CheckError on an inconsistent config (num > den,
  /// zero denominators/costs, miss cost below hit cost, assoc without
  /// ways, ways without assoc).
  void validate() const;

  friend bool operator==(const CaConfig&, const CaConfig&) = default;
};

}  // namespace cadapt::paging
