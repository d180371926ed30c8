#ifndef MODIS_ML_DATASET_H_
#define MODIS_ML_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "table/table.h"

namespace modis {

/// Learning-task flavor a model is trained for.
enum class TaskKind { kRegression, kClassification };

/// Dense numeric learning view of a Table: feature matrix + target vector.
///
/// For classification the target holds class indices (0..num_classes-1).
/// `class_labels` preserves the original target values so predictions can be
/// mapped back.
struct MlDataset {
  Matrix x;
  std::vector<double> y;
  std::vector<std::string> feature_names;
  TaskKind task = TaskKind::kRegression;
  int num_classes = 0;  // 0 for regression.
  std::vector<Value> class_labels;

  size_t num_rows() const { return x.rows(); }
  size_t num_features() const { return x.cols(); }

  /// Subset of rows (for train/test splits).
  MlDataset SelectRows(const std::vector<size_t>& rows) const;

  /// Integer view of the target (classification only).
  std::vector<int> LabelsAsInt() const;
};

/// Conversion options for TableToDataset.
struct BridgeOptions {
  /// Columns excluded from the feature set (e.g. join keys / IDs).
  std::vector<std::string> exclude;
};

/// A table's cells encoded once for repeated gathers: per column, each
/// cell's state, its numeric value, and — for the columns that need one —
/// a code giving the value's rank among the column's distinct non-null
/// values. Gathering a row subset from this is what lets every exact
/// valuation skip copying its dataset out of D_U.
struct EncodedTable {
  enum CellState : uint8_t { kNull = 0, kNumeric, kOther };

  struct EncodedColumn {
    std::vector<uint8_t> state;  // CellState per row.
    std::vector<double> value;   // AsDouble() of numeric cells, else 0.
    /// Rank of the cell's value among `distinct` (nulls: 0, unused).
    /// Empty when the column is not coded.
    std::vector<uint32_t> code;
    /// The column's distinct non-null values in Value order (coded
    /// columns only).
    std::vector<Value> distinct;
  };

  Schema schema;
  size_t num_rows = 0;
  std::vector<EncodedColumn> columns;
};

/// Encodes `table`. Categorical columns are always coded; numeric columns
/// only when named in `coded` (a classification target, a key), because
/// numeric features never need their value ranks.
EncodedTable EncodeTable(const Table& table,
                         const std::vector<std::string>& coded = {});

/// The MlDataset predicting `target` from rows `rows` (ascending) and
/// columns `columns` (ascending) of the encoded table: exactly what
/// TableToDataset returns for that row and column selection of the source
/// table, without copying a cell.
///
/// Numeric features: nulls imputed with the mean of the kept rows (0 if
/// all null). Categorical features: label-encoded against the sorted
/// distinct values present in the kept rows; nulls map to a dedicated
/// "missing" code (0, values from 1). Rows with a null target are
/// dropped. For classification a numeric target is discretized by its
/// distinct values.
Result<MlDataset> GatherDataset(const EncodedTable& encoded,
                                const std::vector<uint32_t>& rows,
                                const std::vector<size_t>& columns,
                                const std::string& target, TaskKind task,
                                const BridgeOptions& options = {});

/// Converts `table` into an MlDataset predicting `target`: EncodeTable
/// plus a GatherDataset over every row and column.
Result<MlDataset> TableToDataset(const Table& table, const std::string& target,
                                 TaskKind task,
                                 const BridgeOptions& options = {});

/// A dataset given as a selection over a table and its encoding: rows
/// `rows` (ascending) and columns `columns` (ascending) of `table`. What a
/// search state denotes, without a copied cell; the pointees must outlive
/// the view.
struct DatasetView {
  const Table* table = nullptr;
  const EncodedTable* encoded = nullptr;
  const std::vector<uint32_t>* rows = nullptr;
  std::vector<size_t> columns;

  /// The selected cells copied out as a table.
  Table ToTable() const;
};

/// Deterministic shuffled split of n rows into train/test index sets.
struct SplitIndices {
  std::vector<size_t> train;
  std::vector<size_t> test;
};
SplitIndices TrainTestSplit(size_t n, double test_fraction, Rng* rng);

}  // namespace modis

#endif  // MODIS_ML_DATASET_H_
