#include "baselines/baselines.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "ml/linear.h"
#include "ops/operators.h"

namespace modis {

namespace {

double Utility(const Evaluation& eval, const MetamOptions& options) {
  if (options.multi_objective) {
    return std::accumulate(eval.normalized.begin(), eval.normalized.end(),
                           0.0) /
           static_cast<double>(eval.normalized.size());
  }
  MODIS_CHECK(options.utility_measure < eval.normalized.size())
      << "utility measure index out of range";
  return eval.normalized[options.utility_measure];
}

Result<BaselineResult> Finish(std::string name, Table dataset,
                              SupervisedEvaluator* evaluator,
                              const WallTimer& timer) {
  BaselineResult result;
  result.name = std::move(name);
  MODIS_ASSIGN_OR_RETURN(result.eval, evaluator->Evaluate(dataset));
  result.dataset = std::move(dataset);
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace

Result<BaselineResult> RunMetam(const DataLake& lake,
                                SupervisedEvaluator* evaluator,
                                const MetamOptions& options) {
  if (lake.tables.empty()) {
    return Status::InvalidArgument("RunMetam: empty lake");
  }
  WallTimer timer;
  Table current = lake.tables[0];
  MODIS_ASSIGN_OR_RETURN(Evaluation current_eval,
                         evaluator->Evaluate(current));
  double current_utility = Utility(current_eval, options);

  std::vector<bool> used(lake.tables.size(), false);
  used[0] = true;
  int joins = 0;
  while (joins < options.max_joins) {
    int best = -1;
    double best_utility = current_utility;
    Table best_table;
    Evaluation best_eval;
    for (size_t t = 1; t < lake.tables.size(); ++t) {
      if (used[t]) continue;
      Result<Table> joined =
          HashJoin(current, lake.tables[t], lake.key(), JoinType::kLeftOuter);
      if (!joined.ok()) continue;
      Result<Evaluation> eval = evaluator->Evaluate(joined.value());
      if (!eval.ok()) continue;
      const double u = Utility(eval.value(), options);
      if (u < best_utility) {
        best_utility = u;
        best = static_cast<int>(t);
        best_table = std::move(joined).value();
        best_eval = std::move(eval).value();
      }
    }
    if (best < 0) break;  // No candidate improves the utility.
    used[best] = true;
    current = std::move(best_table);
    current_eval = std::move(best_eval);
    current_utility = best_utility;
    ++joins;
  }
  const std::string name = options.multi_objective ? "METAM-MO" : "METAM";
  BaselineResult result;
  result.name = name;
  result.eval = std::move(current_eval);
  result.dataset = std::move(current);
  result.seconds = timer.Seconds();
  return result;
}

namespace {

/// Jaccard similarity of two columns' distinct-value sets — the content
/// signature standing in for Starmie's learned column embeddings.
double ColumnJaccard(const Column& a, const Column& b) {
  std::set<Value> sa, sb;
  for (const Value& v : a) {
    if (!v.is_null()) sa.insert(v);
  }
  for (const Value& v : b) {
    if (!v.is_null()) sb.insert(v);
  }
  if (sa.empty() || sb.empty()) return 0.0;
  size_t inter = 0;
  for (const Value& v : sa) inter += sb.count(v);
  return static_cast<double>(inter) /
         static_cast<double>(sa.size() + sb.size() - inter);
}

}  // namespace

Result<BaselineResult> RunStarmieLite(const DataLake& lake,
                                      SupervisedEvaluator* evaluator,
                                      double sim_threshold) {
  if (lake.tables.empty()) {
    return Status::InvalidArgument("RunStarmieLite: empty lake");
  }
  WallTimer timer;
  const Table& base = lake.tables[0];
  Table current = base;
  for (size_t t = 1; t < lake.tables.size(); ++t) {
    // Max column-pair similarity between base and candidate.
    double best_sim = 0.0;
    for (size_t cb = 0; cb < base.num_cols(); ++cb) {
      for (size_t cc = 0; cc < lake.tables[t].num_cols(); ++cc) {
        best_sim = std::max(
            best_sim, ColumnJaccard(base.column(cb), lake.tables[t].column(cc)));
      }
    }
    if (best_sim < sim_threshold) continue;
    Result<Table> joined =
        HashJoin(current, lake.tables[t], lake.key(), JoinType::kLeftOuter);
    if (joined.ok()) current = std::move(joined).value();
  }
  return Finish("Starmie", std::move(current), evaluator, timer);
}

namespace {

/// Projects `universal` onto the selected feature names plus the task's
/// target and excluded (key) columns.
Result<Table> ProjectSelected(const Table& universal,
                              const SupervisedTask& task,
                              const std::vector<std::string>& selected) {
  std::vector<std::string> names;
  for (size_t c = 0; c < universal.num_cols(); ++c) {
    const std::string& n = universal.schema().field(c).name;
    const bool is_meta =
        n == task.target ||
        std::find(task.exclude.begin(), task.exclude.end(), n) !=
            task.exclude.end();
    const bool keep =
        std::find(selected.begin(), selected.end(), n) != selected.end();
    if (is_meta || keep) names.push_back(n);
  }
  return universal.SelectColumnsByName(names);
}

Result<std::vector<std::string>> SelectByImportance(
    const Table& universal, const SupervisedTask& task, MlModel* model) {
  BridgeOptions bridge;
  bridge.exclude = task.exclude;
  MODIS_ASSIGN_OR_RETURN(
      MlDataset ds, TableToDataset(universal, task.target, task.task, bridge));
  Rng rng(task.seed);
  MODIS_RETURN_IF_ERROR(model->Fit(ds, &rng));
  const std::vector<double> importance = model->FeatureImportance();
  if (importance.empty()) {
    return Status::FailedPrecondition("model exposes no importances");
  }
  const double mean =
      std::accumulate(importance.begin(), importance.end(), 0.0) /
      static_cast<double>(importance.size());
  std::vector<std::string> selected;
  for (size_t i = 0; i < importance.size(); ++i) {
    if (importance[i] >= mean) selected.push_back(ds.feature_names[i]);
  }
  if (selected.empty()) selected.push_back(ds.feature_names.front());
  return selected;
}

}  // namespace

Result<BaselineResult> RunSkSfm(const Table& universal,
                                SupervisedEvaluator* evaluator,
                                MlModel* prototype) {
  WallTimer timer;
  std::unique_ptr<MlModel> model = prototype->Clone();
  MODIS_ASSIGN_OR_RETURN(
      std::vector<std::string> selected,
      SelectByImportance(universal, evaluator->task(), model.get()));
  MODIS_ASSIGN_OR_RETURN(
      Table projected,
      ProjectSelected(universal, evaluator->task(), selected));
  return Finish("SkSFM", std::move(projected), evaluator, timer);
}

Result<BaselineResult> RunH2oFs(const Table& universal,
                                SupervisedEvaluator* evaluator) {
  WallTimer timer;
  const SupervisedTask& task = evaluator->task();
  std::unique_ptr<MlModel> linear;
  if (task.task == TaskKind::kRegression) {
    linear = std::make_unique<RidgeRegressor>(1e-3);
  } else {
    linear = std::make_unique<LogisticRegressor>();
  }
  MODIS_ASSIGN_OR_RETURN(
      std::vector<std::string> selected,
      SelectByImportance(universal, task, linear.get()));
  MODIS_ASSIGN_OR_RETURN(Table projected,
                         ProjectSelected(universal, task, selected));
  return Finish("H2O", std::move(projected), evaluator, timer);
}

Result<BaselineResult> RunHydraGanLite(const DataLake& lake,
                                       SupervisedEvaluator* evaluator,
                                       size_t synth_rows, uint64_t seed) {
  if (lake.tables.empty()) {
    return Status::InvalidArgument("RunHydraGanLite: empty lake");
  }
  WallTimer timer;
  Rng rng(seed);
  Table current = lake.tables[0];

  // Per-column marginals of the base table.
  const size_t n = current.num_rows();
  for (size_t added = 0; added < synth_rows; ++added) {
    std::vector<Value> row;
    row.reserve(current.num_cols());
    for (size_t c = 0; c < current.num_cols(); ++c) {
      const Column& col = current.column(c);
      // Sample an observed value and, for numerics, jitter it (a crude
      // stand-in for the generator network's interpolation).
      const Value& v = col[rng.UniformInt(n)];
      if (v.is_null()) {
        row.push_back(Value::Null());
      } else if (v.IsNumeric()) {
        row.emplace_back(v.AsDouble() + rng.Normal(0.0, 0.05));
      } else {
        row.push_back(v);
      }
    }
    MODIS_RETURN_IF_ERROR(current.AppendRow(std::move(row)));
  }
  return Finish("HydraGAN", std::move(current), evaluator, timer);
}

Result<BaselineResult> RunOriginal(const Table& universal,
                                   SupervisedEvaluator* evaluator) {
  WallTimer timer;
  return Finish("Original", universal, evaluator, timer);
}

}  // namespace modis
