// Plain-text table formatting for the campaign reporter's summary tables
// and the examples: fixed-width columns, thousands-grouped counts and
// percentages.
#ifndef SCOOP_HARNESS_REPORT_H_
#define SCOOP_HARNESS_REPORT_H_

#include <string>
#include <vector>

namespace scoop::harness {

/// Accumulates rows and prints an aligned ASCII table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds one row; must have as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Renders the table (header, rule, rows).
  std::string ToString() const;

  /// Prints to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a count with thousands grouping ("12,345").
std::string FormatCount(double value);

/// Formats a double with fixed precision.
std::string FormatDouble(double value, int precision = 2);

/// Formats a ratio as a percentage ("93.1%").
std::string FormatPercent(double fraction, int precision = 1);

}  // namespace scoop::harness

#endif  // SCOOP_HARNESS_REPORT_H_
