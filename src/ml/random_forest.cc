#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace modis {

namespace {

std::vector<size_t> BootstrapSample(size_t n, double fraction, Rng* rng) {
  const size_t m = std::max<size_t>(1, static_cast<size_t>(fraction * n));
  std::vector<size_t> sample(m);
  for (size_t i = 0; i < m; ++i) sample[i] = rng->UniformInt(n);
  return sample;
}

}  // namespace

RandomForestClassifier::RandomForestClassifier(ForestOptions options)
    : options_(options) {}

Status RandomForestClassifier::Fit(const MlDataset& train, Rng* rng) {
  if (train.task != TaskKind::kClassification) {
    return Status::InvalidArgument("RandomForestClassifier needs a "
                                   "classification dataset");
  }
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("RandomForestClassifier: empty training set");
  }
  num_classes_ = train.num_classes;
  num_features_ = train.num_features();
  trees_.clear();
  trees_.reserve(options_.num_trees);

  TreeOptions topt = options_.tree;
  if (topt.feature_fraction >= 1.0 && num_features_ > 1) {
    topt.feature_fraction =
        std::sqrt(static_cast<double>(num_features_)) /
        static_cast<double>(num_features_);
  }
  const FeatureBins bins(train.x, topt.max_bins);
  for (int t = 0; t < options_.num_trees; ++t) {
    DecisionTree tree(topt);
    const auto sample =
        BootstrapSample(train.num_rows(), options_.subsample, rng);
    MODIS_RETURN_IF_ERROR(tree.Fit(bins, train.y, sample,
                                   DecisionTree::Criterion::kGini,
                                   num_classes_, rng));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

std::vector<std::vector<double>> RandomForestClassifier::PredictProba(
    const Matrix& x) const {
  MODIS_CHECK(!trees_.empty()) << "RandomForestClassifier not trained";
  std::vector<std::vector<double>> proba(
      x.rows(), std::vector<double>(num_classes_, 0.0));
  for (size_t r = 0; r < x.rows(); ++r) {
    for (const auto& tree : trees_) {
      const auto& dist = tree.PredictDistribution(x.Row(r));
      for (int k = 0; k < num_classes_; ++k) proba[r][k] += dist[k];
    }
    for (double& p : proba[r]) p /= static_cast<double>(trees_.size());
  }
  return proba;
}

std::vector<double> RandomForestClassifier::Predict(const Matrix& x) const {
  const auto proba = PredictProba(x);
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    out[r] = static_cast<double>(
        std::max_element(proba[r].begin(), proba[r].end()) - proba[r].begin());
  }
  return out;
}

std::vector<double> RandomForestClassifier::FeatureImportance() const {
  return EnsembleImportance(trees_, num_features_);
}

std::unique_ptr<MlModel> RandomForestClassifier::Clone() const {
  return std::make_unique<RandomForestClassifier>(options_);
}

RandomForestRegressor::RandomForestRegressor(ForestOptions options)
    : options_(options) {}

Status RandomForestRegressor::Fit(const MlDataset& train, Rng* rng) {
  if (train.task != TaskKind::kRegression) {
    return Status::InvalidArgument(
        "RandomForestRegressor needs a regression dataset");
  }
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("RandomForestRegressor: empty training set");
  }
  num_features_ = train.num_features();
  trees_.clear();
  trees_.reserve(options_.num_trees);
  TreeOptions topt = options_.tree;
  if (topt.feature_fraction >= 1.0 && num_features_ > 1) {
    topt.feature_fraction = 1.0 / 3.0;  // Common regression default.
  }
  const FeatureBins bins(train.x, topt.max_bins);
  for (int t = 0; t < options_.num_trees; ++t) {
    DecisionTree tree(topt);
    const auto sample =
        BootstrapSample(train.num_rows(), options_.subsample, rng);
    MODIS_RETURN_IF_ERROR(tree.Fit(bins, train.y, sample,
                                   DecisionTree::Criterion::kVariance, 0, rng));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

std::vector<double> RandomForestRegressor::Predict(const Matrix& x) const {
  MODIS_CHECK(!trees_.empty()) << "RandomForestRegressor not trained";
  std::vector<double> out(x.rows(), 0.0);
  for (size_t r = 0; r < x.rows(); ++r) {
    double sum = 0.0;
    for (const auto& tree : trees_) sum += tree.PredictValue(x.Row(r));
    out[r] = sum / static_cast<double>(trees_.size());
  }
  return out;
}

std::vector<double> RandomForestRegressor::FeatureImportance() const {
  return EnsembleImportance(trees_, num_features_);
}

std::unique_ptr<MlModel> RandomForestRegressor::Clone() const {
  return std::make_unique<RandomForestRegressor>(options_);
}

}  // namespace modis
