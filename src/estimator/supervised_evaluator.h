#ifndef MODIS_ESTIMATOR_SUPERVISED_EVALUATOR_H_
#define MODIS_ESTIMATOR_SUPERVISED_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "estimator/task_evaluator.h"
#include "ml/model.h"

namespace modis {

/// Configuration of a supervised (tabular) evaluation task.
struct SupervisedTask {
  std::string target;
  TaskKind task = TaskKind::kClassification;
  std::vector<MeasureSpec> measures;
  /// Feature columns excluded from training (join keys etc.).
  std::vector<std::string> exclude;
  double test_fraction = 0.3;
  uint64_t seed = 7;
  /// Smallest admissible training set; below this Evaluate fails and the
  /// search discards the state.
  size_t min_rows = 10;
};

/// TaskEvaluator for the tabular tasks (T1-T4 and both case studies).
///
/// Supported measure names: "acc", "prec", "rec", "f1", "auc" (classif.);
/// "rmse", "mse", "mae", "r2" (regression); "train_time" (wall seconds of
/// Fit); "fisher", "mi" (feature-set quality scores of Tables 4/6). Raw
/// values are in natural units; normalization follows each MeasureSpec.
class SupervisedEvaluator : public TaskEvaluator {
 public:
  /// `prototype` supplies the model family; a fresh clone is trained per
  /// Evaluate call.
  SupervisedEvaluator(SupervisedTask task, std::unique_ptr<MlModel> prototype);

  const std::vector<MeasureSpec>& measures() const override {
    return task_.measures;
  }
  Result<Evaluation> Evaluate(const Table& dataset) override;
  /// Gathers the dataset from the view's encoding (GatherDataset) — no
  /// table is copied — and evaluates exactly as Evaluate(view.ToTable())
  /// would.
  Result<Evaluation> Evaluate(const DatasetView& view) override;

  /// The train/test split, fit and measures on an already-encoded
  /// dataset: the shared back half of both Evaluate overloads.
  Result<Evaluation> EvaluateDataset(const MlDataset& full) const;

  /// "supervised/<ModelName>/<task kind>/seed=<s>/test=<f>" — the model
  /// family plus the split parameters that shape every evaluation.
  std::string ModelIdentity() const override;

  const SupervisedTask& task() const { return task_; }

 private:
  SupervisedTask task_;
  std::unique_ptr<MlModel> prototype_;
};

}  // namespace modis

#endif  // MODIS_ESTIMATOR_SUPERVISED_EVALUATOR_H_
