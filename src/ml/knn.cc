#include "ml/knn.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace modis {

namespace {

void FitStandardizer(const Matrix& x, std::vector<double>* mean,
                     std::vector<double>* scale) {
  const size_t n = x.rows(), d = x.cols();
  mean->assign(d, 0.0);
  scale->assign(d, 1.0);
  if (n == 0) return;
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) (*mean)[c] += x.At(r, c);
  }
  for (double& m : *mean) m /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) {
      const double dlt = x.At(r, c) - (*mean)[c];
      var[c] += dlt * dlt;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    const double s = std::sqrt(var[c] / static_cast<double>(n));
    (*scale)[c] = s > 1e-12 ? s : 1.0;
  }
}

/// Squared standardized distance between a query row and a training row.
double Distance2(const double* a, const double* b, const std::vector<double>& mean,
                 const std::vector<double>& scale) {
  double s = 0.0;
  for (size_t c = 0; c < mean.size(); ++c) {
    const double d = (a[c] - b[c]) / scale[c];
    s += d * d;
  }
  return s;
}

/// The k nearest (distance, index) pairs, ascending by distance.
std::vector<std::pair<double, size_t>> KNearest(
    const Matrix& train_x, const double* row, int k,
    const std::vector<double>& mean, const std::vector<double>& scale) {
  std::vector<std::pair<double, size_t>> all(train_x.rows());
  for (size_t r = 0; r < train_x.rows(); ++r) {
    all[r] = {Distance2(row, train_x.Row(r), mean, scale), r};
  }
  const size_t kk = std::min<size_t>(k, all.size());
  std::partial_sort(all.begin(), all.begin() + kk, all.end());
  all.resize(kk);
  return all;
}

double Weight(double dist2, bool weighted) {
  return weighted ? 1.0 / (std::sqrt(dist2) + 1e-9) : 1.0;
}

}  // namespace

Status KnnRegressor::Fit(const MlDataset& train, Rng* /*rng*/) {
  if (train.task != TaskKind::kRegression) {
    return Status::InvalidArgument("KnnRegressor needs a regression dataset");
  }
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("KnnRegressor: empty training set");
  }
  train_x_ = train.x;
  train_y_ = train.y;
  FitStandardizer(train_x_, &mean_, &scale_);
  return Status::OK();
}

std::vector<double> KnnRegressor::Predict(const Matrix& x) const {
  MODIS_CHECK(!train_y_.empty()) << "KnnRegressor not trained";
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto nn =
        KNearest(train_x_, x.Row(r), options_.k, mean_, scale_);
    double num = 0.0, den = 0.0;
    for (const auto& [d2, idx] : nn) {
      const double w = Weight(d2, options_.distance_weighted);
      num += w * train_y_[idx];
      den += w;
    }
    out[r] = den > 0.0 ? num / den : 0.0;
  }
  return out;
}

std::unique_ptr<MlModel> KnnRegressor::Clone() const {
  return std::make_unique<KnnRegressor>(options_);
}

}  // namespace modis
