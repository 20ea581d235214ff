// E10 — Lemma 2 (No-Catch-up): delaying an algorithm's start can never
// make it finish earlier.
//
// Empirical validation at scale: pairs of executions, one strictly ahead,
// receive identical random box suffixes; the delayed copy must never
// overtake. Also quantifies the *cost* of a delay: extra boxes needed to
// finish after a warm-up handicap.
#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"
#include "engine/exec.hpp"
#include "stats/streaming.hpp"
#include "util/math.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

int main() {
  using namespace cadapt;
  bench::print_header("E10 (Lemma 2, No-Catch-up)",
                      "A delayed start never finishes earlier.");

  util::Table table({"(a,b,c)", "n", "trials", "violations"});
  for (const model::RegularParams params :
       {model::RegularParams{8, 4, 1.0}, {4, 2, 1.0}, {7, 4, 1.0},
        {3, 2, 0.5}, {8, 4, 0.0}}) {
    const std::uint64_t n = util::ipow(params.b, params.b == 2 ? 7 : 5);
    const std::uint64_t violations =
        core::no_catchup_violations(params, n, 5000, 1234);
    table.row().cell(params.name()).cell(n).cell(std::uint64_t{5000}).cell(
        violations);
  }
  table.print(std::cout);

  // Cost of delay: how many extra boxes does a handicap of d unit boxes
  // cost on a random profile?
  std::cout << "\n--- cost of a d-unit-box handicap, (8,4,1), n = 256, "
               "uniform random boxes in [1, 256] ---\n";
  util::Table cost({"handicap d", "E[extra boxes]", "max extra"});
  for (const std::uint64_t d : {1ull, 4ull, 16ull, 64ull}) {
    stats::Welford extra;
    for (std::uint64_t trial = 0; trial < 400; ++trial) {
      util::Rng rng(trial * 77 + d);
      engine::RegularExecution base({8, 4, 1.0}, 256);
      engine::RegularExecution delayed({8, 4, 1.0}, 256);
      for (std::uint64_t i = 0; i < d && !delayed.done(); ++i)
        delayed.consume_box(1);  // handicap: d boxes wasted on single units
      std::uint64_t base_boxes = 0, delayed_boxes = d;
      while (!base.done() || !delayed.done()) {
        const std::uint64_t s = 1 + rng.below(256);
        if (!base.done()) {
          base.consume_box(s);
          ++base_boxes;
        }
        if (!delayed.done()) {
          delayed.consume_box(s);
          ++delayed_boxes;
        }
      }
      extra.add(static_cast<double>(delayed_boxes) -
                static_cast<double>(base_boxes));
    }
    cost.row().cell(d).cell(extra.mean(), 2).cell(extra.max(), 0);
  }
  cost.print(std::cout);
  std::cout << "\nExtra cost is bounded by the handicap itself (and never "
               "negative) — the quantitative face of Lemma 2.\n";
  return 0;
}
