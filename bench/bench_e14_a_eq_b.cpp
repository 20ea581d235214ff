// E14 — beyond the paper: the a = b case (left open in the paper, "we
// leave the case of a = b for future work").
//
// Merge sort is (2,2,1)-regular. Footnote 3: for a = b, c = 1 no
// algorithm can be *optimally* cache-adaptive (such algorithms are
// already Θ(log(M/B)) from DAM-optimal), but one can still ask how far
// from its own potential it runs. The symbolic ratio curves — M_{2,2}(n)
// vs its i.i.d. reshuffle under operation-based progress — are
// bench/manifests/e14_a_eq_b.manifest. This bench runs the concrete
// counterpart: a real instrumented merge sort on the cache-adaptive
// machine, adversarial vs reshuffled boxes (same multiset).
#include <iostream>

#include "algos/sort.hpp"
#include "bench_common.hpp"
#include "paging/ca_machine.hpp"
#include "profile/transforms.hpp"
#include "profile/worst_case.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

int main() {
  using namespace cadapt;
  bench::print_header(
      "E14 (beyond the paper: a = b)",
      "Real merge sort (2,2,1) under adversarial vs reshuffled profiles. "
      "The a = b\ncase is the paper's explicit future work; these are "
      "empirical data points for it.");

  std::cout << "\n--- real merge sort (n = 8192 keys) on the CA paging "
               "machine ---\n";
  util::Table table({"profile", "I/Os", "boxes"});
  for (const bool shuffled : {false, true}) {
    auto factory = [shuffled]() -> std::unique_ptr<profile::BoxSource> {
      if (!shuffled) {
        return std::make_unique<profile::WorstCaseSource>(2, 2, 1024, 4);
      }
      profile::WorstCaseSource src(2, 2, 1024, 4);
      auto boxes = profile::materialize(src);
      util::Rng rng(31);
      profile::shuffle_boxes(boxes, rng);
      return std::make_unique<profile::VectorSource>(std::move(boxes));
    };
    paging::CaMachine machine(
        std::make_unique<profile::CyclingSource>(factory), 8,
        /*record_boxes=*/false);
    paging::AddressSpace space(8);
    algos::SimVector<std::int64_t> data(machine, space, 8192);
    util::Rng rng(17);
    for (std::size_t i = 0; i < data.size(); ++i)
      data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 20));
    algos::merge_sort(machine, space, data);
    table.row()
        .cell(std::string(shuffled ? "uniformly shuffled M_{2,2}(1024) x4"
                                   : "adversarial M_{2,2}(1024) x4"))
        .cell(machine.misses())
        .cell(machine.boxes_started());
  }
  table.print(std::cout);
  return 0;
}
