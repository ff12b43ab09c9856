// Aligned console tables for the figure and ablation views
// (bench_runner --table, one table per paper figure) plus CSV output for
// plotting.
#pragma once

#include <string>
#include <vector>

namespace nicwarp::harness {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> cols) { header_ = std::move(cols); }
  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  // Adds a row for a sweep point whose experiment failed: `label_cells` fill
  // the leading identity columns, every remaining metric column shows "-",
  // and the failure reason lands in a trailing "error" column that is
  // appended to the header the first time an error row appears (tables from
  // fully-successful sweeps keep their exact historical shape).
  void add_error_row(std::vector<std::string> label_cells, const std::string& error);

  // Convenience formatting helpers.
  static std::string num(double v, int precision = 3);
  static std::string num(std::int64_t v);
  static std::string pct(double v, int precision = 1);

  std::string to_string() const;  // aligned, boxed
  std::string to_csv() const;
  void print() const;             // to stdout

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  bool has_error_col_ = false;
};

}  // namespace nicwarp::harness
