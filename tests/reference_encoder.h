/// The row-at-a-time table encoder MODis used before exact valuations
/// gathered from the encoded D_U: a Table in, one std::map per column.
/// Kept verbatim as the reference the gather path (GatherDataset, and
/// TableToDataset on top of it) must reproduce bit for bit.

#ifndef MODIS_TESTS_REFERENCE_ENCODER_H_
#define MODIS_TESTS_REFERENCE_ENCODER_H_

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "ml/dataset.h"

namespace modis {

inline Result<MlDataset> ReferenceTableToDataset(
    const Table& table, const std::string& target, TaskKind task,
    const BridgeOptions& options = {}) {
  auto target_col = table.schema().FindField(target);
  if (!target_col.has_value()) {
    return Status::NotFound("TableToDataset: no target column " + target);
  }
  std::unordered_set<std::string> excluded(options.exclude.begin(),
                                           options.exclude.end());
  excluded.insert(target);

  // Feature columns in schema order.
  std::vector<size_t> feature_cols;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    if (excluded.count(table.schema().field(c).name) == 0) {
      feature_cols.push_back(c);
    }
  }

  // Rows with a non-null target.
  std::vector<size_t> rows;
  rows.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!table.At(r, *target_col).is_null()) rows.push_back(r);
  }

  MlDataset out;
  out.task = task;
  out.x = Matrix(rows.size(), feature_cols.size());
  out.y.resize(rows.size());
  for (size_t c : feature_cols) {
    out.feature_names.push_back(table.schema().field(c).name);
  }

  // Encode features column by column.
  for (size_t fc = 0; fc < feature_cols.size(); ++fc) {
    const size_t c = feature_cols[fc];
    const Field& field = table.schema().field(c);
    if (field.type == ColumnType::kNumeric) {
      double sum = 0.0;
      size_t n = 0;
      for (size_t r : rows) {
        const Value& v = table.At(r, c);
        if (!v.is_null() && v.IsNumeric()) {
          sum += v.AsDouble();
          ++n;
        }
      }
      const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;
      for (size_t i = 0; i < rows.size(); ++i) {
        const Value& v = table.At(rows[i], c);
        out.x.At(i, fc) =
            (!v.is_null() && v.IsNumeric()) ? v.AsDouble() : mean;
      }
    } else {
      std::map<Value, double> codes;
      for (size_t r : rows) {
        const Value& v = table.At(r, c);
        if (!v.is_null()) codes.emplace(v, 0.0);
      }
      double code = 1.0;
      for (auto& kv : codes) kv.second = code++;
      for (size_t i = 0; i < rows.size(); ++i) {
        const Value& v = table.At(rows[i], c);
        out.x.At(i, fc) = v.is_null() ? 0.0 : codes.at(v);
      }
    }
  }

  // Encode target.
  if (task == TaskKind::kRegression) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const Value& v = table.At(rows[i], *target_col);
      if (!v.IsNumeric()) {
        return Status::InvalidArgument(
            "TableToDataset: regression target must be numeric");
      }
      out.y[i] = v.AsDouble();
    }
  } else {
    std::map<Value, int> classes;
    for (size_t r : rows) {
      classes.emplace(table.At(r, *target_col), 0);
    }
    int next = 0;
    for (auto& kv : classes) {
      kv.second = next++;
      out.class_labels.push_back(kv.first);
    }
    out.num_classes = next;
    for (size_t i = 0; i < rows.size(); ++i) {
      out.y[i] = classes.at(table.At(rows[i], *target_col));
    }
  }
  return out;
}

}  // namespace modis

#endif  // MODIS_TESTS_REFERENCE_ENCODER_H_
