/// Surrogate-family comparison for the estimator E (§2: "We use a
/// multi-output Gradient Boosting Model ... It outperforms other candidate
/// models"). Trains MO-GBM, ridge regression, and kNN surrogates on the
/// same historical test records T (state features -> normalized
/// performance vector) and reports held-out MSE per family plus their
/// per-call prediction cost.
///
/// Expected shape: MO-GBM has the lowest held-out MSE; the linear
/// surrogate underfits the interaction between attribute and cluster bits;
/// kNN sits between, at a higher prediction cost.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/multi_output_gbm.h"

namespace modis::bench {
namespace {

Status Run() {
  // 1. Collect exact test records by running a search with the exact
  //    oracle.
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kHouse, 0.5));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  auto evaluator = bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig config;
  config.epsilon = 0.2;
  config.max_states = 200;
  config.max_level = 4;
  MODIS_ASSIGN_OR_RETURN(ModisResult search,
                         RunNoBiModis(universe, &oracle, config));
  (void)search;

  const auto& records = oracle.store().records();
  if (records.size() < 40) {
    return Status::FailedPrecondition("too few records collected");
  }
  const size_t d = records.front().features.size();
  const size_t m = bench.task.measures.size();

  // 2. Split records into train/holdout.
  Rng rng(31);
  SplitIndices split = TrainTestSplit(records.size(), 0.3, &rng);
  auto fill = [&](const std::vector<size_t>& rows, Matrix* x, Matrix* y) {
    *x = Matrix(rows.size(), d);
    *y = Matrix(rows.size(), m);
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto& r = records[rows[i]];
      for (size_t c = 0; c < d; ++c) x->At(i, c) = r.features[c];
      for (size_t c = 0; c < m; ++c) y->At(i, c) = r.eval.normalized[c];
    }
  };
  Matrix train_x, train_y, test_x, test_y;
  fill(split.train, &train_x, &train_y);
  fill(split.test, &test_x, &test_y);

  std::printf("\n== Surrogate families on %zu records (%zu train / %zu "
              "holdout) ==\n",
              records.size(), split.train.size(), split.test.size());
  std::printf("%s %s %s\n", PadRight("surrogate", 12).c_str(),
              PadRight("holdout-MSE", 12).c_str(),
              PadRight("us/predict", 11).c_str());

  auto report = [&](const char* name, auto&& predict_row) {
    double se = 0.0;
    WallTimer timer;
    for (size_t i = 0; i < test_x.rows(); ++i) {
      const std::vector<double> pred = predict_row(test_x.Row(i));
      for (size_t c = 0; c < m; ++c) {
        const double diff = pred[c] - test_y.At(i, c);
        se += diff * diff;
      }
    }
    const double mse = se / (test_x.rows() * m);
    const double us =
        timer.Seconds() * 1e6 / static_cast<double>(test_x.rows());
    std::printf("%s %s %s\n", PadRight(name, 12).c_str(),
                PadRight(FormatDouble(mse, 6), 12).c_str(),
                PadRight(FormatDouble(us, 2), 11).c_str());
  };

  // MO-GBM (the paper's default).
  {
    MultiOutputGbm mo({.num_rounds = 40});
    Rng fit(32);
    MODIS_RETURN_IF_ERROR(mo.Fit(train_x, train_y, &fit));
    report("MO-GBM", [&](const double* row) { return mo.PredictRow(row); });
  }
  // Ridge: one linear model per output.
  {
    std::vector<RidgeRegressor> models;
    for (size_t c = 0; c < m; ++c) {
      MlDataset ds;
      ds.task = TaskKind::kRegression;
      ds.x = train_x;
      ds.y.resize(train_x.rows());
      for (size_t i = 0; i < train_x.rows(); ++i) ds.y[i] = train_y.At(i, c);
      RidgeRegressor model(1e-3);
      Rng fit(33);
      MODIS_RETURN_IF_ERROR(model.Fit(ds, &fit));
      models.push_back(std::move(model));
    }
    report("Ridge", [&](const double* row) {
      Matrix one(1, d);
      for (size_t c = 0; c < d; ++c) one.At(0, c) = row[c];
      std::vector<double> out(m);
      for (size_t c = 0; c < m; ++c) out[c] = models[c].Predict(one)[0];
      return out;
    });
  }
  // kNN: one regressor per output.
  {
    std::vector<KnnRegressor> models;
    for (size_t c = 0; c < m; ++c) {
      MlDataset ds;
      ds.task = TaskKind::kRegression;
      ds.x = train_x;
      ds.y.resize(train_x.rows());
      for (size_t i = 0; i < train_x.rows(); ++i) ds.y[i] = train_y.At(i, c);
      KnnRegressor model({.k = 5});
      Rng fit(34);
      MODIS_RETURN_IF_ERROR(model.Fit(ds, &fit));
      models.push_back(std::move(model));
    }
    report("kNN", [&](const double* row) {
      Matrix one(1, d);
      for (size_t c = 0; c < d; ++c) one.At(0, c) = row[c];
      std::vector<double> out(m);
      for (size_t c = 0; c < m; ++c) out[c] = models[c].Predict(one)[0];
      return out;
    });
  }
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main() {
  std::printf("Estimator-family comparison (§2/§6, EDBT'25 MODis)\n");
  modis::Status s = modis::bench::Run();
  if (!s.ok()) std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
  return 0;
}
