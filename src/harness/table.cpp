#include "harness/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace nicwarp::harness {

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::num(std::int64_t v) { return std::to_string(v); }

std::string Table::pct(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v << "%";
  return os.str();
}

void Table::add_error_row(std::vector<std::string> label_cells, const std::string& error) {
  if (!has_error_col_) {
    header_.push_back("error");
    has_error_col_ = true;
  }
  while (label_cells.size() + 1 < header_.size()) label_cells.push_back("-");
  label_cells.push_back(error.empty() ? "unknown failure" : error);
  rows_.push_back(std::move(label_cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto widen = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::ostringstream os;
  os << "== " << title_ << " ==\n";
  auto emit = [&os, &widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      os << "| " << std::left << std::setw(static_cast<int>(widths[i])) << c << ' ';
    }
    os << "|\n";
  };
  emit(header_);
  os << "|";
  for (std::size_t w : widths) os << std::string(w + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&os](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) os << ',';
      os << cells[i];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace nicwarp::harness
