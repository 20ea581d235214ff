// E17 — beyond the paper: exhaustive adversary search.
//
// The paper exhibits M_{a,b}(n) (potential n^{log_b a}(log_b n + 1)) and
// proves an O(log n) upper bound, leaving a constant-factor slack. This
// bench computes the EXACT worst case over all square profiles (at small
// n) by dynamic programming over execution positions, under the sound
// budgeted box semantics:
//
//  * c = 1, a > b: the optimum grows with log n and stays within ~2.2x of
//    the paper's construction — the construction is essentially optimal.
//  * c = 0: the optimum over all profiles converges to a constant —
//    Theorem 2's adaptivity claim verified against every profile, not
//    just the constructed one.
//  * The §4 optimistic semantics over-counts the adversary (boxes just
//    below a power of b are charged potential they cannot convert) —
//    quantified in the last table.
#include <iostream>

#include "bench_common.hpp"
#include "engine/adversary.hpp"
#include "profile/box_source.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

int main() {
  using namespace cadapt;
  bench::print_header(
      "E17 (beyond the paper: exhaustive adversary search)",
      "Exact worst case over ALL square profiles vs the paper's "
      "construction.");

  std::cout << "\n--- (8,4,1): the gap regime (budgeted semantics) ---\n";
  {
    util::Table table({"n", "DP optimum", "construction", "opt/constr",
                       "optimal ratio", "log_4 n + 1"});
    for (unsigned k = 1; k <= 4; ++k) {
      const std::uint64_t n = util::ipow(4, k);
      const auto r = engine::solve_adversary({8, 4, 1.0}, n);
      table.row()
          .cell(n)
          .cell(r.optimal_potential, 1)
          .cell(r.construction_potential, 1)
          .cell(r.optimal_potential / r.construction_potential, 3)
          .cell(r.optimal_ratio, 3)
          .cell(std::uint64_t{k + 1});
    }
    table.print(std::cout);
  }

  std::cout << "\n--- (8,4,0): MM-Inplace's shape (worst case over all "
               "profiles is O(1)) ---\n";
  {
    util::Table table({"n", "optimal ratio"});
    for (unsigned k = 1; k <= 4; ++k) {
      const std::uint64_t n = util::ipow(4, k);
      const auto r = engine::solve_adversary({8, 4, 0.0}, n);
      table.row().cell(n).cell(r.optimal_ratio, 3);
    }
    table.print(std::cout);
  }

  std::cout << "\n--- (2,2,1): the a = b shape (gap too) ---\n";
  {
    util::Table table({"n", "optimal ratio", "log_2 n + 1"});
    for (unsigned k = 2; k <= 7; ++k) {
      const std::uint64_t n = util::ipow(2, k);
      const auto r = engine::solve_adversary({2, 2, 1.0}, n);
      table.row().cell(n).cell(r.optimal_ratio, 3).cell(std::uint64_t{k + 1});
    }
    table.print(std::cout);
  }

  std::cout << "\n--- model artifact: optimistic vs budgeted adversary, "
               "(8,4,1) ---\n";
  {
    util::Table table({"n", "budgeted optimum", "optimistic optimum",
                       "inflation"});
    for (unsigned k = 1; k <= 3; ++k) {
      const std::uint64_t n = util::ipow(4, k);
      const auto budgeted = engine::solve_adversary({8, 4, 1.0}, n);
      const auto optimistic = engine::solve_adversary(
          {8, 4, 1.0}, n, engine::ScanPlacement::kEnd,
          engine::BoxSemantics::kOptimistic);
      table.row()
          .cell(n)
          .cell(budgeted.optimal_potential, 1)
          .cell(optimistic.optimal_potential, 1)
          .cell(optimistic.optimal_potential / budgeted.optimal_potential, 3);
    }
    table.print(std::cout);
  }

  // Show one optimal adversarial profile prefix: not the clean recursive
  // construction, but the same character (small boxes through leaves, a
  // near-problem-sized box at each scan).
  {
    const auto r = engine::solve_adversary({8, 4, 1.0}, 16);
    std::cout << "\nwitness profile for (8,4,1), n = 16 ("
              << r.witness.size() << " boxes):";
    for (const auto b : r.witness) std::cout << " " << b;
    std::cout << "\n";
  }
  return 0;
}
