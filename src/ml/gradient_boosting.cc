#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "ml/metrics.h"

namespace modis {

namespace {

std::vector<size_t> SubsampleRows(size_t n, double fraction, Rng* rng) {
  if (fraction >= 1.0) {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  const size_t m = std::max<size_t>(1, static_cast<size_t>(fraction * n));
  return rng->SampleWithoutReplacement(n, m);
}

}  // namespace

GradientBoostingRegressor::GradientBoostingRegressor(GbmOptions options)
    : options_(options) {}

Status GradientBoostingRegressor::Fit(const MlDataset& train, Rng* rng) {
  if (train.task != TaskKind::kRegression) {
    return Status::InvalidArgument(
        "GradientBoostingRegressor needs a regression dataset");
  }
  const size_t n = train.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("GradientBoostingRegressor: empty data");
  }
  num_features_ = train.num_features();
  trees_.clear();
  training_loss_.clear();

  base_prediction_ =
      std::accumulate(train.y.begin(), train.y.end(), 0.0) /
      static_cast<double>(n);
  std::vector<double> pred(n, base_prediction_);
  std::vector<double> residual(n);
  const FeatureBins bins(train.x, options_.tree.max_bins);

  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) residual[i] = train.y[i] - pred[i];
    DecisionTree tree(options_.tree);
    const auto sample = SubsampleRows(n, options_.subsample, rng);
    MODIS_RETURN_IF_ERROR(tree.Fit(bins, residual, sample,
                                   DecisionTree::Criterion::kVariance, 0,
                                   rng));
    for (size_t i = 0; i < n; ++i) {
      pred[i] += options_.learning_rate * tree.PredictValue(train.x.Row(i));
    }
    trees_.push_back(std::move(tree));
    training_loss_.push_back(MeanSquaredError(train.y, pred));
  }
  return Status::OK();
}

std::vector<double> GradientBoostingRegressor::Predict(const Matrix& x) const {
  MODIS_CHECK(!trees_.empty()) << "GradientBoostingRegressor not trained";
  std::vector<double> out(x.rows(), base_prediction_);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* row = x.Row(r);
    for (const auto& tree : trees_) {
      out[r] += options_.learning_rate * tree.PredictValue(row);
    }
  }
  return out;
}

std::vector<double> GradientBoostingRegressor::FeatureImportance() const {
  return EnsembleImportance(trees_, num_features_);
}

std::unique_ptr<MlModel> GradientBoostingRegressor::Clone() const {
  return std::make_unique<GradientBoostingRegressor>(options_);
}

GradientBoostingClassifier::GradientBoostingClassifier(GbmOptions options)
    : options_(options) {}

Status GradientBoostingClassifier::Fit(const MlDataset& train, Rng* rng) {
  if (train.task != TaskKind::kClassification) {
    return Status::InvalidArgument(
        "GradientBoostingClassifier needs a classification dataset");
  }
  const size_t n = train.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("GradientBoostingClassifier: empty data");
  }
  num_classes_ = train.num_classes;
  if (num_classes_ < 2) {
    return Status::InvalidArgument(
        "GradientBoostingClassifier: needs >= 2 classes");
  }
  num_features_ = train.num_features();
  trees_.clear();

  // Base scores: log class priors.
  std::vector<double> prior(num_classes_, 1e-9);
  for (double y : train.y) prior[static_cast<int>(y)] += 1.0;
  base_scores_.assign(num_classes_, 0.0);
  for (int k = 0; k < num_classes_; ++k) {
    base_scores_[k] = std::log(prior[k] / static_cast<double>(n));
  }

  // raw[i*K + k]: current score of row i for class k.
  std::vector<double> raw(n * num_classes_);
  for (size_t i = 0; i < n; ++i) {
    for (int k = 0; k < num_classes_; ++k) {
      raw[i * num_classes_ + k] = base_scores_[k];
    }
  }
  std::vector<double> gradient(n);
  const FeatureBins bins(train.x, options_.tree.max_bins);

  for (int round = 0; round < options_.num_rounds; ++round) {
    const auto sample = SubsampleRows(n, options_.subsample, rng);
    for (int k = 0; k < num_classes_; ++k) {
      // Softmax residual y_k - p_k.
      for (size_t i = 0; i < n; ++i) {
        const double* scores = &raw[i * num_classes_];
        double mx = scores[0];
        for (int c = 1; c < num_classes_; ++c) mx = std::max(mx, scores[c]);
        double denom = 0.0;
        for (int c = 0; c < num_classes_; ++c) {
          denom += std::exp(scores[c] - mx);
        }
        const double pk = std::exp(scores[k] - mx) / denom;
        const double yk = (static_cast<int>(train.y[i]) == k) ? 1.0 : 0.0;
        gradient[i] = yk - pk;
      }
      DecisionTree tree(options_.tree);
      MODIS_RETURN_IF_ERROR(tree.Fit(bins, gradient, sample,
                                     DecisionTree::Criterion::kVariance, 0,
                                     rng));
      for (size_t i = 0; i < n; ++i) {
        raw[i * num_classes_ + k] +=
            options_.learning_rate * tree.PredictValue(train.x.Row(i));
      }
      trees_.push_back(std::move(tree));
    }
  }
  return Status::OK();
}

std::vector<double> GradientBoostingClassifier::RawScores(
    const double* row) const {
  std::vector<double> scores = base_scores_;
  const size_t rounds = trees_.size() / num_classes_;
  for (size_t r = 0; r < rounds; ++r) {
    for (int k = 0; k < num_classes_; ++k) {
      scores[k] += options_.learning_rate *
                   trees_[r * num_classes_ + k].PredictValue(row);
    }
  }
  return scores;
}

std::vector<std::vector<double>> GradientBoostingClassifier::PredictProba(
    const Matrix& x) const {
  MODIS_CHECK(!trees_.empty()) << "GradientBoostingClassifier not trained";
  std::vector<std::vector<double>> proba(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    std::vector<double> scores = RawScores(x.Row(r));
    double mx = scores[0];
    for (double s : scores) mx = std::max(mx, s);
    double denom = 0.0;
    for (double& s : scores) {
      s = std::exp(s - mx);
      denom += s;
    }
    for (double& s : scores) s /= denom;
    proba[r] = std::move(scores);
  }
  return proba;
}

std::vector<double> GradientBoostingClassifier::Predict(const Matrix& x) const {
  const auto proba = PredictProba(x);
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    out[r] = static_cast<double>(
        std::max_element(proba[r].begin(), proba[r].end()) - proba[r].begin());
  }
  return out;
}

std::vector<double> GradientBoostingClassifier::FeatureImportance() const {
  return EnsembleImportance(trees_, num_features_);
}

std::unique_ptr<MlModel> GradientBoostingClassifier::Clone() const {
  return std::make_unique<GradientBoostingClassifier>(options_);
}

GbmOptions LightGbmLiteOptions() {
  GbmOptions opt;
  opt.num_rounds = 50;
  opt.learning_rate = 0.15;
  opt.tree.max_depth = 4;
  opt.tree.min_samples_leaf = 6;
  opt.tree.max_bins = 32;  // Histogram binning — the LightGBM hallmark.
  opt.subsample = 0.8;
  return opt;
}

}  // namespace modis
