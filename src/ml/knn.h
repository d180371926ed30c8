#ifndef MODIS_ML_KNN_H_
#define MODIS_ML_KNN_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace modis {

/// Options of the k-nearest-neighbour regressor.
struct KnnOptions {
  int k = 5;
  /// Inverse-distance weighting of the neighbours (uniform otherwise).
  bool distance_weighted = true;
};

/// Brute-force kNN regressor on standardized features. Serves as an
/// alternative surrogate family in the estimator comparison (§2 of the
/// paper lists surrogate-model estimation approaches MODis can plug in).
class KnnRegressor : public MlModel {
 public:
  explicit KnnRegressor(KnnOptions options = {}) : options_(options) {}

  Status Fit(const MlDataset& train, Rng* rng) override;
  std::vector<double> Predict(const Matrix& x) const override;
  std::unique_ptr<MlModel> Clone() const override;
  const char* Name() const override { return "KnnRegressor"; }

 private:
  KnnOptions options_;
  Matrix train_x_;
  std::vector<double> train_y_;
  std::vector<double> mean_, scale_;
};

}  // namespace modis

#endif  // MODIS_ML_KNN_H_
