// Console table writer used by the benchmark harness to print the rows
// and series recorded in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cadapt::util {

/// A simple right-aligned text table. Cells are formatted up front; the
/// writer computes column widths on output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row. Subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(std::int64_t value);
  Table& cell(std::uint64_t value);
  /// Fixed-precision floating-point cell.
  Table& cell(double value, int precision = 4);

  std::size_t row_count() const { return rows_.size(); }

  /// Render with aligned columns and a header separator.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with the given precision (helper shared with benches).
std::string format_double(double value, int precision = 4);

}  // namespace cadapt::util
