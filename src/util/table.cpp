#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace cadapt::util {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CADAPT_CHECK(!headers_.empty());
}

Table& Table::row() {
  if (!rows_.empty()) {
    CADAPT_CHECK_MSG(rows_.back().size() == headers_.size(),
                     "previous row has " << rows_.back().size()
                                         << " cells, expected "
                                         << headers_.size());
  }
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  CADAPT_CHECK_MSG(!rows_.empty(), "call row() before cell()");
  CADAPT_CHECK_MSG(rows_.back().size() < headers_.size(), "row overfull");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(std::uint64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c])) << v;
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c == 0 ? 0 : 2);
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) print_row(r);
}

}  // namespace cadapt::util
