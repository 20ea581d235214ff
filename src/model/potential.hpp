// Potential and progress accounting (Lemma 1 and Inequality 2).
//
// The potential of a box is rho(|□|) = Θ(|□|^{log_b a}) — the maximum
// progress (base cases) any box of that size could make anywhere in any
// execution. An execution on boxes (□_1..□_j) is *efficiently
// cache-adaptive* when Σ min(n,|□_i|)^{log_b a} <= O(n^{log_b a})
// (Inequality 2; using min(n,·) means the final box need not be rounded
// down). The *adaptivity ratio* below is that sum divided by
// n^{log_b a}: Θ(1) for adaptive executions, Θ(log_b n) on the
// worst-case profile.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "model/regular.hpp"
#include "profile/box.hpp"

namespace cadapt::model {

/// Largest double magnitude (2^53) below which every integer is exactly
/// representable — the domain on which bulk potential accumulation is
/// provably bit-identical to repeated per-box addition (docs/PERF.md).
inline constexpr double kExactIntegerLimit = 9007199254740992.0;

/// True iff `sum + count * x` is bit-identical to adding x to sum `count`
/// times: both are integers and every intermediate partial sum is an
/// exactly-representable integer (<= 2^53). Potentials are nonnegative,
/// so partial sums are monotone and bounded by the final value.
inline bool exactly_bulk_addable(double sum, double x, std::uint64_t count) {
  if (std::floor(sum) != sum || std::floor(x) != x || x < 0.0) return false;
  const long double fin = static_cast<long double>(sum) +
                          static_cast<long double>(count) *
                              static_cast<long double>(x);
  return fin <= static_cast<long double>(kExactIntegerLimit);
}

/// `count` literal additions `sum += x` in O(binades crossed) instead of
/// O(count), bit-identically (docs/PERF.md, "Exact repeated addition").
///
/// Inside one binade every double is a multiple of the binade's ulp u, and
/// a sum that stays below the binade's top is rounded on that grid, so
/// fl(s + x) = s + g·u where g depends only on x/u — except at an exact
/// half-ulp tie, where round-half-even also looks at the parity of s/u:
/// the step alternates between two candidate increments by that parity.
/// A tie step always lands on an even multiple, and from an even multiple
/// every tie rounds the same way, so from the first literal step on the
/// increment d is fixed. Two literal steps measure d, the rest of the
/// binade is one closed-form jump, and the next literal step crosses into
/// the next binade. A sum starting below 2^53 crosses at most ~64
/// binades, whatever the count. Subnormals and the lowest normal binade
/// share u = 2^-1074; there every addition is exact. Operands outside
/// [0, inf) take the literal loop.
inline double repeated_add(double sum, double x, std::uint64_t count) {
  if (!(sum >= 0.0) || !(x >= 0.0) || !std::isfinite(sum) ||
      !std::isfinite(x)) {
    for (std::uint64_t i = 0; i < count; ++i) sum += x;
    return sum;
  }
  if (count == 0) return sum;
  if (x == 0.0) return sum + x;  // idempotent after the first addition
  constexpr double kMantissaSpan = 0x1p53;  // top / u of every binade
  while (count > 0) {
    if (!std::isfinite(sum)) return sum;  // overflowed: stays infinite
    const double u = sum < 0x1p-1021 ? 0x1p-1074
                                     : std::ldexp(1.0, std::ilogb(sum) - 52);
    const double top = u * kMantissaSpan;  // +inf in the highest binade
    const double s1 = sum + x;
    if (--count == 0) return s1;
    if (!(s1 < top)) {  // crossed into the next binade
      sum = s1;
      continue;
    }
    const double s2 = s1 + x;
    if (--count == 0) return s2;
    if (!(s2 < top)) {
      sum = s2;
      continue;
    }
    const double d = s2 - s1;  // exact: both lie on the binade's grid
    if (d == 0.0) return s2;   // x is absorbed from here on
    const auto k2 = static_cast<std::uint64_t>(s2 / u);
    const auto dk = static_cast<std::uint64_t>(d / u);
    // Every further step that stays strictly below top adds exactly d.
    const std::uint64_t room =
        (static_cast<std::uint64_t>(kMantissaSpan) - 1 - k2) / dk;
    const std::uint64_t j = std::min(count, room);
    sum = static_cast<double>(k2 + j * dk) * u;
    count -= j;
  }
  return sum;
}

/// Add `count` copies of x to sum, bit-identically to a repeated-add
/// loop: one multiply when provably exact (an all-integer window below
/// 2^53), binade stepping (repeated_add) otherwise. A single copy is the
/// literal addition itself.
inline double bulk_add(double sum, double x, std::uint64_t count) {
  if (count == 1) return sum + x;
  if (exactly_bulk_addable(sum, x, count)) {
    return sum + static_cast<double>(count) * x;
  }
  return repeated_add(sum, x, count);
}

/// True iff `current + m * (current - before)` is bit-identical to
/// re-adding the (nonnegative, integer-summing) box sequence that took
/// the sum from `before` to `current` m more times. Requires the caller
/// to know every individual addend in that window was integer-valued
/// (e.g. AdaptivityAccumulator::all_integer()); this checks the endpoint
/// integrality and the 2^53 exactness bound on the final value.
inline bool exactly_replayable(double before, double current,
                               std::uint64_t m) {
  if (std::floor(before) != before || std::floor(current) != current ||
      current < before) {
    return false;
  }
  const long double fin =
      static_cast<long double>(current) +
      static_cast<long double>(m) *
          (static_cast<long double>(current) - static_cast<long double>(before));
  return fin <= static_cast<long double>(kExactIntegerLimit);
}

/// The replayed sum: current + m * (current - before). Only exact (and
/// only used) when exactly_replayable() holds.
inline double replay_sum(double before, double current, std::uint64_t m) {
  return current + static_cast<double>(m) * (current - before);
}

/// rho(s) = s^{log_b a} (exact for s a power of b).
inline double rho(const RegularParams& params, profile::BoxSize s) {
  return util::pow_log_ratio(s, params.a, params.b);
}

/// min(n, s)^{log_b a} — the n-bounded potential of a box.
inline double bounded_rho(const RegularParams& params, std::uint64_t n,
                          profile::BoxSize s) {
  return rho(params, std::min<std::uint64_t>(n, s));
}

/// Operation-based potential (the paper's footnote 4 alternative): the
/// maximum number of unit accesses a box of size s can complete, measured
/// as the units of the largest aligned problem fitting in s blocks. For
/// a > b this is Θ(rho(s)); for a <= b (where base cases under-count the
/// work) it is the right progress measure — e.g. a < b, c = 1 algorithms
/// are linear-time and trivially adaptive under it.
inline double rho_units(const RegularParams& params, profile::BoxSize s) {
  CADAPT_CHECK(s >= 1);
  return static_cast<double>(
      problem_units(params, util::floor_pow(s, params.b)));
}

/// Units-based bounded potential: the cap is the whole problem's units.
inline double bounded_rho_units(const RegularParams& params, std::uint64_t n,
                                profile::BoxSize s) {
  return rho_units(params, std::min<std::uint64_t>(n, s));
}

/// Memo of the n-bounded potentials of one (params, n) problem: entry
/// min(n, s) holds bounded_rho and bounded_rho_units of a size-s box,
/// computed by those same functions on first use, so every lookup is
/// bit-identical to calling them, together with the box's level and
/// whether its rho is an integer. Keys up to kDenseBound live in a dense
/// table grown on demand; larger keys (only reachable when n exceeds the
/// bound) are computed directly.
class BoundedPotentials {
 public:
  struct Entry {
    double rho;        ///< bounded_rho(params, n, s)
    double rho_units;  ///< bounded_rho_units(params, n, s)
    /// floor(log_b(min(n, s))): the level of the largest problem the box
    /// can complete (engine::RegularExecution::level_of).
    unsigned level;
    bool integral;  ///< rho is an integer (std::floor(rho) == rho)
  };

  static constexpr std::uint64_t kDenseBound = UINT64_C(1) << 14;

  BoundedPotentials(const RegularParams& params, std::uint64_t n)
      : params_(params), n_(n) {}

  Entry at(profile::BoxSize s) {
    const std::uint64_t key = std::min<std::uint64_t>(n_, s);
    if (key < dense_.size() && dense_[key].rho >= 0.0) return dense_[key];
    return fill(key);
  }

 private:
  /// at()'s miss path, out of line so that at() inlines: computes the
  /// entry, memoizing dense keys.
  [[gnu::noinline]] Entry fill(std::uint64_t key) {
    if (key > kDenseBound) return compute(key);
    if (key >= dense_.size()) {
      const std::uint64_t grown =
          std::max<std::uint64_t>(key + 1, 2 * dense_.size());
      // Potentials are never negative: -1 marks an entry not yet filled.
      dense_.resize(std::min(grown, kDenseBound + 1),
                    Entry{-1.0, -1.0, 0, false});
    }
    return dense_[key] = compute(key);
  }

  Entry compute(std::uint64_t key) const {
    const double r = bounded_rho(params_, n_, key);
    return {r, bounded_rho_units(params_, n_, key),
            util::ilog(key, params_.b), std::floor(r) == r};
  }

  RegularParams params_;
  std::uint64_t n_;
  std::vector<Entry> dense_;
};

/// Accumulates the left-hand side of Inequality 2 over the boxes an
/// execution consumes, together with its operation-based twin
/// Σ ρ_U(min(n,|□_i|)) (paper footnote 4).
class AdaptivityAccumulator {
 public:
  AdaptivityAccumulator(const RegularParams& params, std::uint64_t n)
      : params_(params), n_(n), potentials_(params, n) {
    params_.validate();
    CADAPT_CHECK(n >= 1);
  }

  void add_box(profile::BoxSize s) { add(lookup(s)); }

  /// The memoized potentials and level of a size-s box. A caller that
  /// also needs the box's level (run_to_completion's batch loop) looks
  /// the box up once and passes the entry to add().
  BoundedPotentials::Entry lookup(profile::BoxSize s) {
    return potentials_.at(s);
  }

  /// add_box for an entry lookup() returned: the same additions.
  void add(const BoundedPotentials::Entry& e) {
    all_integer_ = all_integer_ && e.integral;
    sum_bounded_potential_ += e.rho;
    sum_unit_potential_ += e.rho_units;
    ++boxes_;
  }

  /// Bulk add of `count` equal boxes — bit-identical to `count` add_box
  /// calls, in O(1) for integer potentials and O(binades) otherwise.
  void add_boxes(profile::BoxSize s, std::uint64_t count) {
    const BoundedPotentials::Entry e = lookup(s);
    all_integer_ = all_integer_ && e.integral;
    sum_bounded_potential_ = bulk_add(sum_bounded_potential_, e.rho, count);
    sum_unit_potential_ = bulk_add(sum_unit_potential_, e.rho_units, count);
    boxes_ += count;
  }

  /// Both sums and the box count at one point of the stream: the start of
  /// a window that may later be replayed.
  struct Mark {
    double sum_bounded_potential = 0;
    double sum_unit_potential = 0;
    std::uint64_t boxes = 0;
  };
  Mark mark() const {
    return {sum_bounded_potential_, sum_unit_potential_, boxes_};
  }

  /// True iff m further copies of the window since `before` replay
  /// exactly in BOTH sums: every potential added so far was
  /// integer-valued (always the case for power-of-b box sizes; unit
  /// potentials are integers by construction) and both replayed sums stay
  /// within the exact-integer range (exactly_replayable).
  bool replayable(const Mark& before, std::uint64_t m) const {
    return all_integer_ &&
           exactly_replayable(before.sum_bounded_potential,
                              sum_bounded_potential_, m) &&
           exactly_replayable(before.sum_unit_potential, sum_unit_potential_,
                              m);
  }

  /// Commit m replayed copies of the window since `before`; the caller
  /// must have checked replayable(before, m).
  void apply_replay(const Mark& before, std::uint64_t m) {
    sum_bounded_potential_ =
        replay_sum(before.sum_bounded_potential, sum_bounded_potential_, m);
    sum_unit_potential_ =
        replay_sum(before.sum_unit_potential, sum_unit_potential_, m);
    boxes_ += m * (boxes_ - before.boxes);
  }

  std::uint64_t boxes() const { return boxes_; }
  double sum_bounded_potential() const { return sum_bounded_potential_; }

  /// Σ min(n,|□_i|)^{log_b a} / n^{log_b a}. An algorithm is efficiently
  /// cache-adaptive iff this stays O(1) over all profiles as n grows.
  double ratio() const { return sum_bounded_potential_ / rho(params_, n_); }

  /// Σ ρ_U(min(n,|□_i|)) / U(n): the same criterion under the
  /// operation-based progress function.
  double unit_ratio() const {
    return sum_unit_potential_ /
           static_cast<double>(problem_units(params_, n_));
  }

 private:
  RegularParams params_;
  std::uint64_t n_;
  BoundedPotentials potentials_;
  double sum_bounded_potential_ = 0.0;
  double sum_unit_potential_ = 0.0;
  std::uint64_t boxes_ = 0;
  bool all_integer_ = true;
};

}  // namespace cadapt::model
