// E13 — validating the square-profile reduction (Definition 1 / §2).
//
// All of cache-adaptive analysis works with square profiles because any
// memory profile m(t) can be approximated by its inner square
// decomposition up to constant-factor resource augmentation. This bench
// checks the reduction concretely: real instrumented algorithms run on
// (a) the raw "fluid" machine driven by m(t) directly (cache resized per
// I/O, no clearing) and (b) the boxed CaMachine driven by the inner
// square profile of the same m(t) (cache cleared per box). The I/O counts
// should agree within a constant factor across profile shapes.
#include <iostream>
#include <memory>

#include "algos/mm.hpp"
#include "algos/sort.hpp"
#include "bench_common.hpp"
#include "paging/ca_machine.hpp"
#include "paging/fluid.hpp"
#include "profile/box_source.hpp"
#include "profile/generators.hpp"
#include "profile/square_approx.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

using namespace cadapt;

constexpr std::uint64_t kBlock = 8;

struct Pair {
  std::uint64_t fluid_ios;
  std::uint64_t boxed_ios;
};

template <typename Fn>
Pair compare(const std::vector<std::uint64_t>& m, Fn&& algorithm) {
  Pair result{};
  {
    paging::FluidCaMachine machine(m, kBlock);
    paging::AddressSpace space(kBlock);
    algorithm(machine, space);
    result.fluid_ios = machine.misses();
  }
  {
    auto boxes = profile::inner_square_profile(m);
    auto source = std::make_unique<profile::CyclingSource>(
        [boxes] { return std::make_unique<profile::VectorSource>(boxes); });
    paging::CaMachine machine(std::move(source), kBlock,
                              /*record_boxes=*/false);
    paging::AddressSpace space(kBlock);
    algorithm(machine, space);
    result.boxed_ios = machine.misses();
  }
  return result;
}

void run_workloads(const std::string& profile_name,
                   const std::vector<std::uint64_t>& m) {
  std::cout << "\n--- m(t): " << profile_name << " (" << m.size()
            << " steps) ---\n";
  util::Table table({"workload", "fluid I/Os", "boxed I/Os", "boxed/fluid"});

  auto report = [&](const std::string& name, const Pair& p) {
    table.row()
        .cell(name)
        .cell(p.fluid_ios)
        .cell(p.boxed_ios)
        .cell(static_cast<double>(p.boxed_ios) /
                  static_cast<double>(p.fluid_ios),
              3);
  };

  report("MM-Scan 48x48",
         compare(m, [](paging::Machine& machine, paging::AddressSpace& space) {
           const std::size_t n = 48;
           algos::SimMatrix<double> a(machine, space, n, n),
               b(machine, space, n, n), c(machine, space, n, n);
           util::Rng rng(5);
           for (std::size_t i = 0; i < n; ++i)
             for (std::size_t j = 0; j < n; ++j) {
               a.raw(i, j) = static_cast<double>(rng.below(8));
               b.raw(i, j) = static_cast<double>(rng.below(8));
             }
           algos::MmScratch scratch(machine, space);
           algos::mm_scan(algos::MatView<double>(c), algos::MatView<double>(a),
                          algos::MatView<double>(b), scratch, 4);
         }));

  report("MM-Inplace 48x48",
         compare(m, [](paging::Machine& machine, paging::AddressSpace& space) {
           const std::size_t n = 48;
           algos::SimMatrix<double> a(machine, space, n, n),
               b(machine, space, n, n), c(machine, space, n, n);
           util::Rng rng(6);
           for (std::size_t i = 0; i < n; ++i)
             for (std::size_t j = 0; j < n; ++j) {
               a.raw(i, j) = static_cast<double>(rng.below(8));
               b.raw(i, j) = static_cast<double>(rng.below(8));
             }
           algos::mm_inplace(algos::MatView<double>(c),
                             algos::MatView<double>(a),
                             algos::MatView<double>(b), 4);
         }));

  report("merge sort 16384",
         compare(m, [](paging::Machine& machine, paging::AddressSpace& space) {
           algos::SimVector<std::int64_t> data(machine, space, 16384);
           util::Rng rng(7);
           for (std::size_t i = 0; i < data.size(); ++i)
             data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 20));
           algos::merge_sort(machine, space, data);
         }));

  table.print(std::cout);
}

}  // namespace

int main() {
  using namespace cadapt;
  bench::print_header(
      "E13 (square-profile reduction, §2)",
      "Raw m(t) machine vs its inner square decomposition: I/O counts "
      "agree\nwithin small constant factors, as the reduction promises.");

  run_workloads("sawtooth ramp 1..96, 6 cycles",
                profile::sawtooth_profile(96, 6));
  {
    profile::RandomWalkOptions walk;
    walk.start = 64;
    walk.length = 4096;
    run_workloads("random walk around 64",
                  profile::random_walk_profile(walk, 21));
  }
  run_workloads("constant 32", profile::constant_profile(32, 2048));
  run_workloads("phased 64/8 blocks",
                profile::phased_profile(64, 256, 8, 256, 4096));
  {
    profile::MultiprogramOptions mp;
    mp.total_cache = 96;
    mp.length = 4096;
    run_workloads("queueing multiprogram shares of 96",
                  profile::multiprogram_profile(mp, 17));
  }
  return 0;
}
