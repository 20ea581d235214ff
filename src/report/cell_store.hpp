// Columnar report engine (docs/REPORT.md): the struct-of-arrays twin of
// campaign::Report, built for 1e7–1e8-cell campaigns where the
// row-of-strings representation (one CellResult per cell, one
// obs::Event per line) turns report bookkeeping into allocator traffic.
//
// Layout: every numeric cell field lives in its own fixed-width column
// (std::vector), the four string axes (algo/profile/sort/policy) are
// interned into per-axis dictionaries so each cell carries a u32 id,
// and all per-trial samples share ONE contiguous arena with a per-cell
// offset column — loading a store is a handful of memcpy-bandwidth
// scans instead of millions of small-string allocations.
//
// The JSONL report stays the interchange format: export_report() renders
// the EXACT bytes campaign::write_report produces (it goes through the
// same cell_event/to_jsonl encoders), so every cmp-based bit-identity
// gate in the repo holds across a binary round trip. See binary_io.hpp
// for the on-disk container.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/report.hpp"

namespace cadapt::report {

/// Append-only interning dictionary for one string axis. Ids are dense
/// and assigned in first-appearance order, so a store built from a
/// report and the report rebuilt from the store agree byte-for-byte.
class StringDict {
 public:
  /// Id of `token`, interning it on first sight.
  std::uint32_t intern(std::string_view token);
  /// Id of `token` if already interned, npos otherwise.
  static constexpr std::uint32_t npos = 0xFFFFFFFFu;
  std::uint32_t find(std::string_view token) const;

  const std::string& token(std::uint32_t id) const { return tokens_.at(id); }
  std::size_t size() const { return tokens_.size(); }
  const std::vector<std::string>& tokens() const { return tokens_; }

 private:
  std::vector<std::string> tokens_;
  std::map<std::string, std::uint32_t, std::less<>> index_;
};

/// One fit row in columnar form (algo/profile refer to the store's
/// dictionaries).
struct FitRow {
  std::uint32_t algo_id = 0;
  std::uint32_t profile_id = 0;
  double exponent = 0;
  double scale = 0;
  double r2 = 0;
  double expected = 0;
};

/// Struct-of-arrays cell store: report header + dictionaries + one
/// column per cell field + the shared samples arena. Cells are kept in
/// ascending index order (the Report contract); append() enforces the
/// samples-vs-completed invariant the JSONL parser enforces.
class CellStore {
 public:
  // ---- report-level metadata (mirrors campaign::Report) ----
  std::uint64_t version = 1;
  std::string name;
  std::uint64_t config_hash = 0;
  std::uint64_t cells_total = 0;
  std::uint64_t shards = 1;
  std::uint64_t shard_index = 0;
  bool truncated = false;
  robust::CancelReason truncate_reason = robust::CancelReason::kNone;
  std::uint64_t wall_ms = 0;
  campaign::Provenance env;

  // ---- dictionaries ----
  StringDict algo_dict;
  StringDict profile_dict;
  StringDict sort_dict;
  StringDict policy_dict;

  // ---- cell columns (all size() == cell_count()) ----
  std::vector<std::uint64_t> index;
  std::vector<std::uint32_t> algo_id;
  std::vector<std::uint32_t> profile_id;
  std::vector<std::uint32_t> sort_id;
  std::vector<std::uint32_t> policy_id;
  std::vector<std::uint32_t> k;
  std::vector<std::uint64_t> n;
  std::vector<std::uint64_t> trials;
  std::vector<std::uint64_t> completed;
  std::vector<std::uint64_t> incomplete;
  std::vector<std::uint64_t> capped;
  std::vector<std::uint64_t> failed;
  std::vector<double> mean;
  std::vector<double> ci_lo;
  std::vector<double> ci_hi;
  std::vector<double> q50;
  std::vector<double> q90;
  std::vector<double> q95;
  std::vector<double> boxes_mean;
  std::vector<std::uint64_t> wall_ns;
  /// Start of each cell's samples in the arena; the cell's sample count
  /// is its `completed` column (the report invariant).
  std::vector<std::uint64_t> samples_offset;

  /// The shared samples arena, cells' runs concatenated in column order.
  std::vector<double> samples;

  std::vector<FitRow> fits;

  std::size_t cell_count() const { return index.size(); }

  /// Reserve column capacity for `cells` rows and `samples` doubles.
  void reserve(std::size_t cells, std::size_t sample_capacity);

  /// Append one finished cell: interns its tokens, pushes one value per
  /// column, appends its samples to the arena. Throws util::ParseError
  /// if samples.size() != completed (same invariant as the JSONL
  /// parser). Cells must arrive in ascending index order.
  void append(const campaign::CellResult& cell);

  /// Materialize row `row` as a CellResult, reusing `out`'s string and
  /// sample capacity (the export hot loop calls this once per cell).
  void cell(std::size_t row, campaign::CellResult& out) const;
  campaign::CellResult cell(std::size_t row) const;

  /// Report header fields as a cells/fits-free Report (the header and
  /// env lines of the export).
  campaign::Report header() const;

  // ---- conversions ----
  static CellStore from_report(const campaign::Report& report);
  campaign::Report to_report() const;

  /// Recompute fits over the columns — the columnar twin of
  /// campaign::compute_fits: ratio series grouped by (algo, profile) in
  /// first-appearance order, >= 2 distinct n, no empty cells. Produces
  /// bit-identical fit rows (same stats::fit_power_law inputs).
  void recompute_fits();

  /// Print one table per ratio series — the (algo, profile) groups
  /// recompute_fits fits, in the same order: n, k, mean, bootstrap CI,
  /// q95, boxes_mean and completed per cell, then the OLS slope of mean
  /// against k (= log_b n; Θ(1) ratio => slope ~ 0, the full log gap =>
  /// slope 1). `cadapt report info` prints this at full grid coverage.
  void write_series_tables(std::ostream& os) const;

  /// Render the exact bytes campaign::write_report emits for the
  /// equivalent Report — one line per sink call, '\n' included. Goes
  /// through the same cell_event/to_jsonl encoders, so equivalence is
  /// by construction, not by parallel implementation.
  void export_report(const std::function<void(std::string_view)>& sink) const;

  /// export_report into a stream (used by `cadapt report export -`).
  void export_report_stream(std::ostream& os) const;

  /// export_report committed atomically to `path` — byte-identical to
  /// campaign::write_report_file of the equivalent Report, without ever
  /// materializing the row representation.
  void export_report_file(const std::string& path,
                          robust::IoBackend& io = robust::system_io()) const;

  /// Columnar shard merge — the twin of campaign::merge_reports, minus
  /// the per-cell CellResult materialization: validates campaign
  /// identity, remaps dictionary ids, orders cells by ascending index,
  /// rejects duplicate indexes and non-covering shard sets with the
  /// same util::ParseError messages, sums wall_ms, ORs truncation, and
  /// recomputes fits.
  static CellStore merge(std::vector<CellStore> parts);

 private:
  using SeriesKey = std::pair<std::uint32_t, std::uint32_t>;  ///< ids
  /// Ratio cells (non-empty algo, empty sort) grouped by (algo, profile)
  /// id pair in first-appearance order; each group lists its rows.
  std::vector<std::pair<SeriesKey, std::vector<std::size_t>>> ratio_series()
      const;
};

/// Streaming writer: appends finished cells straight into columns —
/// no obs::Event, no JSONL line, no per-cell string churn beyond first
/// interning. Feed it cells as they finish, then take() the store
/// (setting header fields before or after appending).
class ColumnarWriter {
 public:
  ColumnarWriter() = default;
  explicit ColumnarWriter(CellStore initial) : store_(std::move(initial)) {}

  CellStore& store() { return store_; }
  const CellStore& store() const { return store_; }

  void reserve(std::size_t cells, std::size_t sample_capacity) {
    store_.reserve(cells, sample_capacity);
  }
  void append(const campaign::CellResult& cell) { store_.append(cell); }

  CellStore take() { return std::move(store_); }

 private:
  CellStore store_;
};

}  // namespace cadapt::report
