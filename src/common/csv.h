#ifndef LOFKIT_COMMON_CSV_H_
#define LOFKIT_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace lofkit {

/// A parsed numeric CSV file: optional header names plus a rectangular
/// matrix of doubles. All rows must have the same number of fields.
struct CsvTable {
  std::vector<std::string> header;        ///< Empty when the file had none.
  std::vector<std::vector<double>> rows;  ///< Row-major values.

  size_t num_columns() const {
    return rows.empty() ? header.size() : rows.front().size();
  }
};

/// Options controlling CSV parsing.
struct CsvReadOptions {
  char separator = ',';
  /// When true, the first non-empty line is treated as column names.
  bool has_header = false;
  /// When true, lines starting with '#' are skipped.
  bool allow_comments = true;
  /// Longest accepted physical line, in bytes (0 = unlimited). Hostile or
  /// corrupt inputs (a newline-free multi-gigabyte blob, a binary file fed
  /// to the CSV path) fail with a clean InvalidArgument instead of
  /// ballooning memory on a single std::getline.
  size_t max_line_bytes = 1 << 20;
};

/// A parsed numeric CSV file in one row-major buffer: data row r is
/// values[r * columns, (r + 1) * columns). The same parse as CsvTable's,
/// without a vector per row; the Dataset loader builds on it.
struct CsvValues {
  std::vector<std::string> header;  ///< Empty when the file had none.
  /// Fields per line: the header's count, else the first data row's, else
  /// 0. Equals CsvTable::num_columns() of the same file.
  size_t columns = 0;
  std::vector<double> values;

  size_t num_rows() const { return columns == 0 ? 0 : values.size() / columns; }
};

/// Parses CSV text already in memory. Returns InvalidArgument on ragged rows
/// or non-numeric fields (with the offending 1-based line number).
Result<CsvTable> ParseCsv(const std::string& text,
                          const CsvReadOptions& options = {});

/// Reads and parses a CSV file. Returns IoError when the file is unreadable.
Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvReadOptions& options = {});

/// ReadCsvFile into one flat buffer: the same checks and messages, in the
/// same order.
Result<CsvValues> ReadCsvValues(const std::string& path,
                                const CsvReadOptions& options = {});

/// Serializes a table (header optional) back to CSV text, every value as
/// printf's "%.17g" prints it, which round-trips through ParseCsv.
std::string WriteCsv(const CsvTable& table, char separator = ',');

/// Writes CSV text to a file, overwriting it. Returns IoError on failure.
Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char separator = ',');

}  // namespace lofkit

#endif  // LOFKIT_COMMON_CSV_H_
