#include "estimator/supervised_evaluator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "ml/feature_scores.h"
#include "ml/metrics.h"

namespace modis {

SupervisedEvaluator::SupervisedEvaluator(SupervisedTask task,
                                         std::unique_ptr<MlModel> prototype)
    : task_(std::move(task)), prototype_(std::move(prototype)) {
  MODIS_CHECK(prototype_ != nullptr) << "SupervisedEvaluator: null model";
  MODIS_CHECK(!task_.measures.empty()) << "SupervisedEvaluator: no measures";
}

std::string SupervisedEvaluator::ModelIdentity() const {
  return std::string("supervised/") + prototype_->Name() + "/" +
         (task_.task == TaskKind::kRegression ? "regression"
                                              : "classification") +
         "/seed=" + std::to_string(task_.seed) +
         "/test=" + std::to_string(task_.test_fraction);
}

Result<Evaluation> SupervisedEvaluator::Evaluate(const Table& dataset) {
  BridgeOptions bridge;
  bridge.exclude = task_.exclude;
  MODIS_ASSIGN_OR_RETURN(
      MlDataset full, TableToDataset(dataset, task_.target, task_.task, bridge));
  return EvaluateDataset(full);
}

Result<Evaluation> SupervisedEvaluator::Evaluate(const DatasetView& view) {
  BridgeOptions bridge;
  bridge.exclude = task_.exclude;
  MODIS_ASSIGN_OR_RETURN(
      MlDataset full, GatherDataset(*view.encoded, *view.rows, view.columns,
                                    task_.target, task_.task, bridge));
  return EvaluateDataset(full);
}

Result<Evaluation> SupervisedEvaluator::EvaluateDataset(
    const MlDataset& full) const {
  if (full.num_rows() < task_.min_rows) {
    return Status::FailedPrecondition("dataset too small to evaluate: " +
                                      std::to_string(full.num_rows()) +
                                      " rows");
  }
  if (full.num_features() == 0) {
    return Status::FailedPrecondition("dataset has no feature columns");
  }
  if (full.task == TaskKind::kClassification && full.num_classes < 2) {
    return Status::FailedPrecondition("dataset lost all but one class");
  }

  Rng rng(task_.seed);
  SplitIndices split = TrainTestSplit(full.num_rows(), task_.test_fraction,
                                      &rng);
  if (split.train.empty() || split.test.empty()) {
    return Status::FailedPrecondition("degenerate train/test split");
  }
  MlDataset train = full.SelectRows(split.train);
  MlDataset test = full.SelectRows(split.test);
  if (full.task == TaskKind::kClassification) {
    // Training split must still cover >= 2 classes.
    std::vector<int> labels = train.LabelsAsInt();
    if (*std::max_element(labels.begin(), labels.end()) ==
        *std::min_element(labels.begin(), labels.end())) {
      return Status::FailedPrecondition("training split has a single class");
    }
  }

  std::unique_ptr<MlModel> model = prototype_->Clone();
  Rng fit_rng(task_.seed + 1);
  WallTimer timer;
  MODIS_RETURN_IF_ERROR(model->Fit(train, &fit_rng));
  const double train_seconds = timer.Seconds();

  const std::vector<double> pred = model->Predict(test.x);
  std::vector<int> y_int, pred_int;
  std::vector<std::vector<double>> proba;
  if (full.task == TaskKind::kClassification) {
    y_int = test.LabelsAsInt();
    pred_int.resize(pred.size());
    for (size_t i = 0; i < pred.size(); ++i) {
      pred_int[i] = static_cast<int>(pred[i]);
    }
    proba = model->PredictProba(test.x);
  }

  // Labels for the feature-quality scores (fisher / mi): classification
  // labels directly, regression targets discretized into quintiles.
  auto score_labels = [&]() -> std::pair<std::vector<int>, int> {
    if (full.task == TaskKind::kClassification) {
      return {test.LabelsAsInt(), full.num_classes};
    }
    return {DiscretizeTarget(test.y, 5), 5};
  };

  Evaluation eval;
  eval.raw.reserve(task_.measures.size());
  eval.normalized.reserve(task_.measures.size());
  for (const MeasureSpec& m : task_.measures) {
    double raw = 0.0;
    if (m.name == "train_time") {
      raw = train_seconds;
    } else if (m.name == "acc") {
      // For regression tasks "accuracy" is the clamped R2 score — the
      // paper's convertible maximize-measure for T1's gross prediction.
      raw = full.task == TaskKind::kClassification
                ? Accuracy(y_int, pred_int)
                : std::max(0.0, R2Score(test.y, pred));
    } else if (m.name == "prec") {
      raw = MacroPrecision(y_int, pred_int, full.num_classes);
    } else if (m.name == "rec") {
      raw = MacroRecall(y_int, pred_int, full.num_classes);
    } else if (m.name == "f1") {
      raw = MacroF1(y_int, pred_int, full.num_classes);
    } else if (m.name == "auc") {
      raw = proba.empty() ? 0.5 : MacroAuc(y_int, proba);
    } else if (m.name == "rmse") {
      raw = RootMeanSquaredError(test.y, pred);
    } else if (m.name == "mse") {
      raw = MeanSquaredError(test.y, pred);
    } else if (m.name == "mae") {
      raw = MeanAbsoluteError(test.y, pred);
    } else if (m.name == "r2") {
      raw = R2Score(test.y, pred);
    } else if (m.name == "fisher") {
      const auto [labels, k] = score_labels();
      raw = MeanFisherScore(test.x, labels, k);
    } else if (m.name == "mi") {
      const auto [labels, k] = score_labels();
      raw = MeanMutualInformation(test.x, labels, k);
    } else {
      return Status::InvalidArgument("unknown measure: " + m.name);
    }
    eval.raw.push_back(raw);
    eval.normalized.push_back(m.Normalize(raw));
  }
  return eval;
}

}  // namespace modis
