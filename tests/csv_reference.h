// The CSV layer as it stood before it was rewritten around one in-place
// scanner, kept as the oracle for tests/csv_differential_test.cc: the
// getline/Split parser, strtod for every number, %.17g through StrFormat
// for every written value, and the CsvTable-then-Dataset load path.
//
// The bodies are verbatim copies, except that the fail points are left out
// (the oracle is never the code under fault injection) and that calls
// between these functions name this namespace, which argument-dependent
// lookup of the lofkit types would otherwise make ambiguous. Nothing in src/
// includes this file; do not "fix" it, or the differential test stops
// pinning today's grammar, messages and bytes.

#ifndef LOFKIT_TESTS_CSV_REFERENCE_H_
#define LOFKIT_TESTS_CSV_REFERENCE_H_

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/string_util.h"
#include "dataset/dataset.h"
#include "dataset/loaders.h"

namespace lofkit::csv_reference {

inline Result<double> ParseDouble(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not a number");
  }
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing garbage in number: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of double range: '" + buf + "'");
  }
  return value;
}

inline Result<CsvTable> ParseCsv(const std::string& text,
                                 const CsvReadOptions& options) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  bool header_consumed = !options.has_header;
  size_t expected_cols = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (options.max_line_bytes != 0 && line.size() > options.max_line_bytes) {
      return Status::InvalidArgument(
          StrFormat("line %zu is %zu bytes long, limit is %zu "
                    "(CsvReadOptions::max_line_bytes)",
                    line_number, line.size(), options.max_line_bytes));
    }
    if (line.find('\0') != std::string::npos) {
      // An embedded NUL would silently truncate the field inside the
      // C-string number parser; reject the whole line instead.
      return Status::InvalidArgument(
          StrFormat("line %zu contains an embedded NUL byte", line_number));
    }
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (options.allow_comments && trimmed.front() == '#') continue;
    std::vector<std::string> fields = Split(trimmed, options.separator);
    if (!header_consumed) {
      for (auto& f : fields) f = std::string(Trim(f));
      table.header = std::move(fields);
      expected_cols = table.header.size();
      header_consumed = true;
      continue;
    }
    if (expected_cols == 0) {
      expected_cols = fields.size();
    } else if (fields.size() != expected_cols) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", line_number,
                    fields.size(), expected_cols));
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (const auto& field : fields) {
      Result<double> value = csv_reference::ParseDouble(field);
      if (!value.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %zu: %s", line_number,
                      value.status().message().c_str()));
      }
      row.push_back(*value);
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

inline Result<CsvTable> ReadCsvFile(const std::string& path,
                                    const CsvReadOptions& options) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) {
    return Status::IoError("read failure on file: " + path);
  }
  return csv_reference::ParseCsv(buffer.str(), options);
}

inline std::string WriteCsv(const CsvTable& table, char separator = ',') {
  std::string out;
  if (!table.header.empty()) {
    for (size_t i = 0; i < table.header.size(); ++i) {
      if (i > 0) out.push_back(separator);
      out += table.header[i];
    }
    out.push_back('\n');
  }
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(separator);
      out += StrFormat("%.17g", row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

inline Result<Dataset> DatasetFromCsvTable(const CsvTable& table,
                                           const DatasetLoadOptions& options) {
  if (table.rows.empty()) {
    return Status::InvalidArgument("CSV table has no data rows");
  }
  const size_t columns = table.num_columns();
  std::vector<size_t> coords = options.coordinate_columns;
  if (coords.empty()) {
    for (size_t c = 0; c < columns; ++c) {
      if (options.label_column >= 0 &&
          c == static_cast<size_t>(options.label_column)) {
        continue;
      }
      coords.push_back(c);
    }
  }
  if (coords.empty()) {
    return Status::InvalidArgument("no coordinate columns selected");
  }
  for (size_t c : coords) {
    if (c >= columns) {
      return Status::OutOfRange(
          StrFormat("coordinate column %zu out of range (%zu columns)", c,
                    columns));
    }
  }
  if (options.label_column >= 0 &&
      static_cast<size_t>(options.label_column) >= columns) {
    return Status::OutOfRange(
        StrFormat("label column %d out of range (%zu columns)",
                  options.label_column, columns));
  }

  LOFKIT_ASSIGN_OR_RETURN(Dataset dataset, Dataset::Create(coords.size()));
  std::vector<double> point(coords.size());
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::vector<double>& row = table.rows[r];
    for (size_t i = 0; i < coords.size(); ++i) {
      point[i] = row[coords[i]];
    }
    std::string label;
    if (options.label_column >= 0) {
      label = StrFormat("%g", row[static_cast<size_t>(options.label_column)]);
    }
    // Re-wrap Append failures (dimension can't mismatch here, so this is
    // the non-finite-coordinate guard) with the offending data row, so a
    // CSV holding "inf" or "nan" points at the row instead of just the
    // symptom.
    if (Status status = dataset.Append(point, std::move(label));
        !status.ok()) {
      return Status::InvalidArgument(
          StrFormat("data row %zu: %s", r + 1, status.message().c_str()));
    }
  }
  return dataset;
}

inline Result<Dataset> DatasetFromCsvFile(const std::string& path,
                                          const DatasetLoadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvTable table,
                          csv_reference::ReadCsvFile(path, options.csv));
  return csv_reference::DatasetFromCsvTable(table, options);
}

}  // namespace lofkit::csv_reference

#endif  // LOFKIT_TESTS_CSV_REFERENCE_H_
