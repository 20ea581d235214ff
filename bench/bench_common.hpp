// Shared banner for the experiment benches. Each bench binary regenerates
// one experiment from DESIGN.md §4 that is not a ratio grid; the ratio
// curves are manifests under bench/manifests/ (see EXPERIMENTS.md).
#pragma once

#include <iostream>
#include <string>

namespace cadapt::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "==============================================================\n"
            << id << "\n" << claim << "\n"
            << "==============================================================\n";
}

}  // namespace cadapt::bench
