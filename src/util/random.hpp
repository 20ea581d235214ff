// Deterministic, seedable PRNG for reproducible experiments.
//
// We use xoshiro256** (public-domain algorithm by Blackman & Vigna) seeded
// via SplitMix64, rather than std::mt19937_64, for two reasons: (1) the
// stream is identical across standard libraries, so recorded experiment
// seeds reproduce bit-for-bit anywhere; (2) it is measurably faster in the
// Monte-Carlo inner loops.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace cadapt::util {

/// SplitMix64 step — used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless hash combiner for tree-path hashing: both the
/// order-perturbed profile generator and the adversary-matched execution
/// derive per-node randomness as hash_combine(parent_hash, child_index),
/// so the two stay in sync without sharing a traversal order.
constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  std::uint64_t state = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  return splitmix64(state);
}

/// xoshiro256** engine. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1234ABCDu) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be nonzero. Uses Lemire-style
  /// rejection to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// The top 53 bits of one draw: the integer uniform01() scales.
  std::uint64_t bits53() { return (*this)() >> 11; }

  /// Uniform double in [0, 1).
  double uniform01() { return static_cast<double>(bits53()) * 0x1.0p-53; }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// Derive an independent child generator (for per-trial streams).
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace cadapt::util
