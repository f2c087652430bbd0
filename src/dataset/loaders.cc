#include "dataset/loaders.h"

#include <algorithm>
#include <cmath>

#include "common/fail_point.h"
#include "common/string_util.h"

namespace lofkit {

namespace {

// The one row-to-dataset step behind DatasetFromCsvFile and
// DatasetFromCsvTable. Its checks come in a fixed order: no data rows, the
// column selection, then row by row the "loaders.row" fail point and the
// finiteness of the row's coordinates. Every parse error of the file has
// been reported before this runs, so a non-finite row never hides one.
Result<Dataset> DatasetFromValues(CsvValues parsed,
                                  const DatasetLoadOptions& options) {
  const size_t rows = parsed.num_rows();
  if (rows == 0) {
    return Status::InvalidArgument("CSV table has no data rows");
  }
  const size_t columns = parsed.columns;
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

  // When every column is a coordinate, in file order, the parsed buffer
  // already is the dataset's storage; otherwise the selected columns are
  // copied out of it.
  const size_t dimension = coords.size();
  bool in_place = options.label_column < 0 && dimension == columns;
  for (size_t i = 0; in_place && i < dimension; ++i) in_place = coords[i] == i;
  std::vector<double> coordinates;
  if (in_place) {
    coordinates = std::move(parsed.values);
  } else {
    coordinates.resize(rows * dimension);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t i = 0; i < dimension; ++i) {
        coordinates[r * dimension + i] = parsed.values[r * columns + coords[i]];
      }
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    LOFKIT_FAIL_POINT("loaders.row");
    // NaN or inf would silently poison every distance; name the data row
    // rather than just the symptom.
    const double* point = coordinates.data() + r * dimension;
    if (!std::all_of(point, point + dimension,
                     [](double v) { return std::isfinite(v); })) {
      return Status::InvalidArgument(StrFormat(
          "data row %zu: non-finite coordinate in point", r + 1));
    }
  }
  LOFKIT_ASSIGN_OR_RETURN(
      Dataset dataset, Dataset::FromRowMajor(dimension, std::move(coordinates)));
  if (options.label_column >= 0) {
    const size_t label = static_cast<size_t>(options.label_column);
    for (size_t r = 0; r < rows; ++r) {
      dataset.set_label(r, StrFormat("%g", parsed.values[r * columns + label]));
    }
  }
  return dataset;
}

}  // namespace

Result<Dataset> DatasetFromCsvTable(const CsvTable& table,
                                    const DatasetLoadOptions& options) {
  CsvValues parsed;
  parsed.columns = table.num_columns();
  parsed.values.reserve(table.rows.size() * parsed.columns);
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::vector<double>& row = table.rows[r];
    if (row.size() != parsed.columns) {
      return Status::InvalidArgument(
          StrFormat("CSV table row %zu has %zu fields, expected %zu", r + 1,
                    row.size(), parsed.columns));
    }
    parsed.values.insert(parsed.values.end(), row.begin(), row.end());
  }
  return DatasetFromValues(std::move(parsed), options);
}

Result<Dataset> DatasetFromCsvFile(const std::string& path,
                                   const DatasetLoadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvValues parsed, ReadCsvValues(path, options.csv));
  return DatasetFromValues(std::move(parsed), options);
}

}  // namespace lofkit
