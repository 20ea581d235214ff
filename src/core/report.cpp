#include "core/report.hpp"

#include <ostream>
#include <sstream>

#include "obs/recorder.hpp"
#include "util/table.hpp"

namespace cadapt::core {

namespace {

std::string class_range(std::size_t k) {
  std::ostringstream out;
  out << "[2^" << k << ", 2^" << k + 1 << ")";
  return out.str();
}

}  // namespace

void print_trace_summary(std::ostream& os, const obs::ExecRecorder& rec) {
  util::Table table(
      {"class", "|box|", "boxes", "sum |box|", "progress", "scan", "retired"});
  const auto& classes = rec.size_classes();
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const auto& t = classes[k];
    if (t.boxes == 0) continue;
    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(class_range(k))
        .cell(t.boxes)
        .cell(t.sum_box)
        .cell(t.progress)
        .cell(t.scan_advance)
        .cell(t.completions);
  }
  table.row()
      .cell(std::string("all"))
      .cell(std::string(""))
      .cell(rec.boxes())
      .cell(rec.sum_box_sizes())
      .cell(rec.total_progress())
      .cell(rec.total_scan_advance())
      .cell(rec.completions());
  table.print(os);
  os << "branches: jump=" << rec.branch_count(obs::ExecBranch::kCompleteJump)
     << " scan=" << rec.branch_count(obs::ExecBranch::kScanAdvance)
     << " budgeted=" << rec.branch_count(obs::ExecBranch::kBudgeted) << "\n";
}

void print_trial_summary(std::ostream& os, const obs::McRecorder& rec) {
  const bool timed = rec.record_timing();
  std::vector<std::string> headers = {"trial", "seed",  "done",
                                      "boxes", "ratio", "unit ratio"};
  if (timed) headers.push_back("ms");
  util::Table table(std::move(headers));
  for (const auto& t : rec.trials()) {
    auto& row = table.row()
                    .cell(t.trial)
                    .cell(t.seed)
                    .cell(std::string(t.completed ? "yes" : "NO"))
                    .cell(t.boxes)
                    .cell(t.ratio, 3)
                    .cell(t.unit_ratio, 3);
    if (timed) row.cell(static_cast<double>(t.duration_ns) / 1e6, 3);
  }
  table.print(os);
}

void print_paging_summary(std::ostream& os, const obs::PagingRecorder& rec) {
  util::Table table(
      {"class", "|box|", "boxes", "accesses", "hits", "misses", "evictions"});
  for (std::size_t k = 0; k < rec.levels().size(); ++k) {
    const auto& t = rec.levels()[k];
    if (t.boxes == 0 && t.accesses == 0) continue;
    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(class_range(k))
        .cell(t.boxes)
        .cell(t.accesses)
        .cell(t.hits)
        .cell(t.misses)
        .cell(t.evictions);
  }
  table.print(os);
  os << "totals: hits=" << rec.total_hits()
     << " misses=" << rec.total_misses() << "\n";
  // Only two-tier machines produce tier-2 traffic; single-tier output
  // stays byte-identical to the historical summary.
  const auto& t2 = rec.tier2();
  if (t2.accesses != 0) {
    os << "tier2: accesses=" << t2.accesses << " hits=" << t2.hits
       << " misses=" << t2.misses << "\n";
  }
}

}  // namespace cadapt::core
