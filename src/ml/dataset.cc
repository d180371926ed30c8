#include "ml/dataset.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_set>

#include "common/logging.h"

namespace modis {

MlDataset MlDataset::SelectRows(const std::vector<size_t>& rows) const {
  MlDataset out;
  out.feature_names = feature_names;
  out.task = task;
  out.num_classes = num_classes;
  out.class_labels = class_labels;
  out.x = Matrix(rows.size(), x.cols());
  out.y.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    MODIS_DCHECK(rows[i] < x.rows()) << "SelectRows out of range";
    const double* src = x.Row(rows[i]);
    double* dst = out.x.Row(i);
    std::copy(src, src + x.cols(), dst);
    out.y[i] = y[rows[i]];
  }
  return out;
}

std::vector<int> MlDataset::LabelsAsInt() const {
  std::vector<int> out(y.size());
  for (size_t i = 0; i < y.size(); ++i) out[i] = static_cast<int>(y[i]);
  return out;
}

EncodedTable EncodeTable(const Table& table,
                         const std::vector<std::string>& coded) {
  const std::unordered_set<std::string> coded_set(coded.begin(), coded.end());
  EncodedTable out;
  out.schema = table.schema();
  out.num_rows = table.num_rows();
  out.columns.resize(table.num_cols());
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Field& field = table.schema().field(c);
    const Column& cells = table.column(c);
    EncodedTable::EncodedColumn& col = out.columns[c];
    col.state.resize(cells.size());
    col.value.assign(cells.size(), 0.0);
    for (size_t r = 0; r < cells.size(); ++r) {
      const Value& v = cells[r];
      if (v.is_null()) {
        col.state[r] = EncodedTable::kNull;
      } else if (v.IsNumeric()) {
        col.state[r] = EncodedTable::kNumeric;
        col.value[r] = v.AsDouble();
      } else {
        col.state[r] = EncodedTable::kOther;
      }
    }
    if (field.type == ColumnType::kNumeric &&
        coded_set.count(field.name) == 0) {
      continue;
    }
    // Value ranks: a std::map orders (and merges) the values exactly as
    // the per-dataset encoding's own std::map would, and keeps each
    // group's first row as its representative. One lookup per cell: the
    // cell remembers its map slot, which receives the rank afterwards.
    std::map<Value, uint32_t> ranks;
    std::vector<const uint32_t*> slot(cells.size(), nullptr);
    for (size_t r = 0; r < cells.size(); ++r) {
      if (!cells[r].is_null()) {
        slot[r] = &ranks.emplace(cells[r], 0).first->second;
      }
    }
    col.distinct.reserve(ranks.size());
    for (auto& [value, rank] : ranks) {
      rank = static_cast<uint32_t>(col.distinct.size());
      col.distinct.push_back(value);
    }
    col.code.assign(cells.size(), 0);
    for (size_t r = 0; r < cells.size(); ++r) {
      if (slot[r] != nullptr) col.code[r] = *slot[r];
    }
  }
  return out;
}

namespace {

constexpr uint32_t kAbsent = UINT32_MAX;

/// Per code of `col`: its rank among the codes present in the non-null
/// cells of `rows`, or kAbsent.
std::vector<uint32_t> PresentRanks(const EncodedTable::EncodedColumn& col,
                                   const std::vector<uint32_t>& rows) {
  std::vector<uint32_t> rank(col.distinct.size(), kAbsent);
  for (uint32_t r : rows) {
    if (col.state[r] != EncodedTable::kNull) rank[col.code[r]] = 0;
  }
  uint32_t next = 0;
  for (uint32_t& k : rank) {
    if (k != kAbsent) k = next++;
  }
  return rank;
}

}  // namespace

Result<MlDataset> GatherDataset(const EncodedTable& encoded,
                                const std::vector<uint32_t>& rows,
                                const std::vector<size_t>& columns,
                                const std::string& target, TaskKind task,
                                const BridgeOptions& options) {
  const Schema& schema = encoded.schema;
  size_t target_col = schema.num_fields();
  for (size_t c : columns) {
    if (schema.field(c).name == target) {
      target_col = c;
      break;
    }
  }
  if (target_col == schema.num_fields()) {
    return Status::NotFound("TableToDataset: no target column " + target);
  }
  std::unordered_set<std::string> excluded(options.exclude.begin(),
                                           options.exclude.end());
  excluded.insert(target);

  // Feature columns in schema order.
  std::vector<size_t> feature_cols;
  for (size_t c : columns) {
    if (excluded.count(schema.field(c).name) == 0) feature_cols.push_back(c);
  }

  // Rows with a non-null target.
  const EncodedTable::EncodedColumn& y_col = encoded.columns[target_col];
  std::vector<uint32_t> kept;
  kept.reserve(rows.size());
  for (uint32_t r : rows) {
    MODIS_DCHECK(r < encoded.num_rows) << "GatherDataset row out of range";
    if (y_col.state[r] != EncodedTable::kNull) kept.push_back(r);
  }

  MlDataset out;
  out.task = task;
  out.x = Matrix(kept.size(), feature_cols.size());
  out.y.resize(kept.size());
  for (size_t c : feature_cols) {
    out.feature_names.push_back(schema.field(c).name);
  }

  // Encode features column by column.
  for (size_t fc = 0; fc < feature_cols.size(); ++fc) {
    const size_t c = feature_cols[fc];
    const EncodedTable::EncodedColumn& col = encoded.columns[c];
    if (schema.field(c).type == ColumnType::kNumeric) {
      // Summed in ascending row order, as the row-at-a-time encoding does.
      double sum = 0.0;
      size_t n = 0;
      for (uint32_t r : kept) {
        if (col.state[r] == EncodedTable::kNumeric) {
          sum += col.value[r];
          ++n;
        }
      }
      const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
      for (size_t i = 0; i < kept.size(); ++i) {
        const uint32_t r = kept[i];
        out.x.At(i, fc) =
            col.state[r] == EncodedTable::kNumeric ? col.value[r] : mean;
      }
    } else {
      const std::vector<uint32_t> rank = PresentRanks(col, kept);
      for (size_t i = 0; i < kept.size(); ++i) {
        const uint32_t r = kept[i];
        out.x.At(i, fc) = col.state[r] == EncodedTable::kNull
                              ? 0.0
                              : 1.0 + static_cast<double>(rank[col.code[r]]);
      }
    }
  }

  // Encode target.
  if (task == TaskKind::kRegression) {
    for (size_t i = 0; i < kept.size(); ++i) {
      if (y_col.state[kept[i]] != EncodedTable::kNumeric) {
        return Status::InvalidArgument(
            "TableToDataset: regression target must be numeric");
      }
      out.y[i] = y_col.value[kept[i]];
    }
  } else {
    if (y_col.code.size() != encoded.num_rows) {
      return Status::FailedPrecondition(
          "GatherDataset: classification target " + target +
          " was not coded by EncodeTable");
    }
    const std::vector<uint32_t> rank = PresentRanks(y_col, kept);
    for (size_t k = 0; k < rank.size(); ++k) {
      if (rank[k] != kAbsent) out.class_labels.push_back(y_col.distinct[k]);
    }
    out.num_classes = static_cast<int>(out.class_labels.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      out.y[i] = rank[y_col.code[kept[i]]];
    }
  }
  return out;
}

Result<MlDataset> TableToDataset(const Table& table, const std::string& target,
                                 TaskKind task, const BridgeOptions& options) {
  std::vector<uint32_t> rows(table.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
  std::vector<size_t> columns(table.num_cols());
  for (size_t c = 0; c < columns.size(); ++c) columns[c] = c;
  const std::vector<std::string> coded = {target};
  return GatherDataset(
      EncodeTable(table, task == TaskKind::kClassification
                             ? coded
                             : std::vector<std::string>{}),
      rows, columns, target, task, options);
}

Table DatasetView::ToTable() const {
  std::vector<size_t> selected(rows->begin(), rows->end());
  Result<Table> projected = table->SelectColumns(columns);
  MODIS_CHECK(projected.ok()) << projected.status().ToString();
  return projected.value().SelectRows(selected);
}

SplitIndices TrainTestSplit(size_t n, double test_fraction, Rng* rng) {
  MODIS_CHECK(test_fraction >= 0.0 && test_fraction < 1.0)
      << "test_fraction out of range";
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  rng->Shuffle(&idx);
  const size_t test_n = static_cast<size_t>(test_fraction * n);
  SplitIndices split;
  split.test.assign(idx.begin(), idx.begin() + test_n);
  split.train.assign(idx.begin() + test_n, idx.end());
  return split;
}

}  // namespace modis
