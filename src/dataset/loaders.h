#ifndef LOFKIT_DATASET_LOADERS_H_
#define LOFKIT_DATASET_LOADERS_H_

#include <string>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "dataset/dataset.h"

namespace lofkit {

/// Options for building a Dataset from tabular (CSV) data.
struct DatasetLoadOptions {
  /// Columns to use as coordinates, by 0-based position. Empty = all
  /// columns.
  std::vector<size_t> coordinate_columns;
  /// Optional column whose values become point labels (rendered with %g).
  /// -1 = no label column.
  int label_column = -1;
  CsvReadOptions csv;
};

/// Builds a Dataset from an in-memory CSV table. Every row must have
/// table.num_columns() fields. A row holding a non-finite coordinate fails
/// with InvalidArgument naming its 1-based data row.
Result<Dataset> DatasetFromCsvTable(const CsvTable& table,
                                    const DatasetLoadOptions& options = {});

/// Reads a CSV file into a Dataset: the same result as ReadCsvFile followed
/// by DatasetFromCsvTable, but the file is read once and its rows are
/// parsed straight into one flat buffer, with no CsvTable in between.
Result<Dataset> DatasetFromCsvFile(const std::string& path,
                                   const DatasetLoadOptions& options = {});

}  // namespace lofkit

#endif  // LOFKIT_DATASET_LOADERS_H_
