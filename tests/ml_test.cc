#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/feature_scores.h"
#include "ml/gradient_boosting.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/multi_output_gbm.h"
#include "ml/random_forest.h"

namespace modis {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, RegressionClosedForms) {
  std::vector<double> y{1, 2, 3};
  std::vector<double> p{1, 2, 5};
  EXPECT_NEAR(MeanSquaredError(y, p), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(RootMeanSquaredError(y, p), std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(MeanAbsoluteError(y, p), 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, R2PerfectAndMeanPredictor) {
  std::vector<double> y{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(R2Score(y, y), 1.0);
  std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(R2Score(y, mean_pred), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(R2Score({2, 2}, {1, 3}), 0.0);  // Zero-variance target.
}

TEST(MetricsTest, AccuracyCounts) {
  EXPECT_DOUBLE_EQ(Accuracy({0, 1, 1, 0}, {0, 1, 0, 0}), 0.75);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(MetricsTest, MacroPrf) {
  // Two classes; class 0: tp=2 fp=1 fn=0 -> p=2/3 r=1; class 1: tp=1 fp=0
  // fn=1 -> p=1 r=0.5.
  std::vector<int> y{0, 0, 1, 1};
  std::vector<int> p{0, 0, 0, 1};
  EXPECT_NEAR(MacroPrecision(y, p, 2), (2.0 / 3.0 + 1.0) / 2.0, 1e-12);
  EXPECT_NEAR(MacroRecall(y, p, 2), (1.0 + 0.5) / 2.0, 1e-12);
  const double f0 = 2 * (2.0 / 3.0) * 1.0 / (2.0 / 3.0 + 1.0);
  const double f1 = 2 * 1.0 * 0.5 / 1.5;
  EXPECT_NEAR(MacroF1(y, p, 2), (f0 + f1) / 2.0, 1e-12);
}

TEST(MetricsTest, BinaryAucPerfectAndRandom) {
  EXPECT_DOUBLE_EQ(BinaryAuc({0, 0, 1, 1}, {0.1, 0.2, 0.8, 0.9}), 1.0);
  EXPECT_DOUBLE_EQ(BinaryAuc({0, 0, 1, 1}, {0.9, 0.8, 0.2, 0.1}), 0.0);
  EXPECT_DOUBLE_EQ(BinaryAuc({0, 0, 1, 1}, {0.5, 0.5, 0.5, 0.5}), 0.5);
  EXPECT_DOUBLE_EQ(BinaryAuc({1, 1}, {0.5, 0.7}), 0.5);  // Single class.
}

TEST(MetricsTest, BinaryAucHandlesTies) {
  // Scores: pos {0.5, 0.9}, neg {0.5, 0.1}; tie contributes 0.5.
  EXPECT_NEAR(BinaryAuc({0, 1, 0, 1}, {0.1, 0.5, 0.5, 0.9}), 0.875, 1e-12);
}

TEST(MetricsTest, MacroAucAveragesClasses) {
  std::vector<int> y{0, 1, 2};
  std::vector<std::vector<double>> proba{
      {0.8, 0.1, 0.1}, {0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}};
  EXPECT_DOUBLE_EQ(MacroAuc(y, proba), 1.0);
}

TEST(MetricsTest, RankingMetrics) {
  std::vector<std::vector<int>> rel{{1, 2}};
  std::vector<std::vector<int>> ranked{{1, 3, 2, 4}};
  EXPECT_DOUBLE_EQ(PrecisionAtK(rel, ranked, 2), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(rel, ranked, 2), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(rel, ranked, 4), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(rel, ranked, 4), 1.0);
  // NDCG@2: DCG = 1/log2(2) = 1; IDCG = 1 + 1/log2(3).
  EXPECT_NEAR(NdcgAtK(rel, ranked, 2), 1.0 / (1.0 + 1.0 / std::log2(3.0)),
              1e-12);
}

TEST(MetricsTest, RankingPerfectOrder) {
  std::vector<std::vector<int>> rel{{0, 1, 2}};
  std::vector<std::vector<int>> ranked{{0, 1, 2, 3, 4}};
  EXPECT_DOUBLE_EQ(NdcgAtK(rel, ranked, 3), 1.0);
  EXPECT_DOUBLE_EQ(PrecisionAtK(rel, ranked, 3), 1.0);
}

// ---------------------------------------------------------------- Bridge

Table BridgeTable() {
  Table t(Schema({{"id", ColumnType::kNumeric},
                  {"f", ColumnType::kNumeric},
                  {"c", ColumnType::kCategorical},
                  {"y", ColumnType::kNumeric}}));
  EXPECT_TRUE(t.AppendRow({Value(int64_t{0}), Value(1.0), Value("a"),
                           Value(10.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value::Null(), Value("b"),
                           Value(20.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value(3.0), Value::Null(),
                           Value(30.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value(5.0), Value("a"),
                           Value::Null()}).ok());
  return t;
}

TEST(BridgeTest, DropsNullTargetsAndImputes) {
  BridgeOptions opts;
  opts.exclude = {"id"};
  auto ds = TableToDataset(BridgeTable(), "y", TaskKind::kRegression, opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_rows(), 3u);  // Null-target row dropped.
  EXPECT_EQ(ds->num_features(), 2u);
  // Null f imputed with mean of {1, 3} = 2.
  EXPECT_DOUBLE_EQ(ds->x.At(1, 0), 2.0);
  // Categorical: a->1, b->2, null->0.
  EXPECT_DOUBLE_EQ(ds->x.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ds->x.At(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(ds->x.At(2, 1), 0.0);
}

TEST(BridgeTest, ClassificationEncodesLabels) {
  auto ds = TableToDataset(BridgeTable(), "c", TaskKind::kClassification, {});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_rows(), 3u);  // Null-c row dropped.
  EXPECT_EQ(ds->num_classes, 2);
  EXPECT_EQ(ds->class_labels.size(), 2u);
}

TEST(BridgeTest, MissingTargetFails) {
  EXPECT_FALSE(
      TableToDataset(BridgeTable(), "zzz", TaskKind::kRegression, {}).ok());
}

TEST(BridgeTest, SelectRowsSubsets) {
  auto ds = TableToDataset(BridgeTable(), "y", TaskKind::kRegression, {});
  ASSERT_TRUE(ds.ok());
  MlDataset sub = ds->SelectRows({2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.y[0], 30.0);
  EXPECT_DOUBLE_EQ(sub.y[1], 10.0);
}

TEST(BridgeTest, TrainTestSplitPartitions) {
  Rng rng(3);
  auto split = TrainTestSplit(100, 0.3, &rng);
  EXPECT_EQ(split.test.size(), 30u);
  EXPECT_EQ(split.train.size(), 70u);
  std::vector<bool> seen(100, false);
  for (size_t i : split.train) seen[i] = true;
  for (size_t i : split.test) {
    EXPECT_FALSE(seen[i]);  // Disjoint.
    seen[i] = true;
  }
}

// ------------------------------------------------------- Synthetic data

/// y = 2*x0 - x1 (+ noise); x2 is pure noise.
MlDataset MakeRegressionData(size_t n, double noise, uint64_t seed) {
  Rng rng(seed);
  MlDataset ds;
  ds.task = TaskKind::kRegression;
  ds.x = Matrix(n, 3);
  ds.y.resize(n);
  ds.feature_names = {"x0", "x1", "x2"};
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.Normal(), x1 = rng.Normal(), x2 = rng.Normal();
    ds.x.At(i, 0) = x0;
    ds.x.At(i, 1) = x1;
    ds.x.At(i, 2) = x2;
    ds.y[i] = 2.0 * x0 - x1 + rng.Normal(0.0, noise);
  }
  return ds;
}

/// Two blobs separable along x0; x1 noise.
MlDataset MakeClassificationData(size_t n, uint64_t seed, int num_classes = 2) {
  Rng rng(seed);
  MlDataset ds;
  ds.task = TaskKind::kClassification;
  ds.num_classes = num_classes;
  ds.x = Matrix(n, 2);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng.UniformInt(num_classes));
    ds.x.At(i, 0) = 3.0 * k + rng.Normal(0.0, 0.5);
    ds.x.At(i, 1) = rng.Normal();
    ds.y[i] = k;
  }
  return ds;
}

// ---------------------------------------------------------------- Trees

TEST(DecisionTreeTest, FitsSeparableClassification) {
  MlDataset ds = MakeClassificationData(300, 1);
  DecisionTree tree({.max_depth = 4});
  std::vector<size_t> all(ds.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Rng rng(2);
  ASSERT_TRUE(tree.Fit(ds.x, ds.y, all, DecisionTree::Criterion::kGini, 2,
                       &rng).ok());
  size_t hits = 0;
  for (size_t i = 0; i < ds.num_rows(); ++i) {
    if (static_cast<int>(tree.PredictValue(ds.x.Row(i))) ==
        static_cast<int>(ds.y[i])) {
      ++hits;
    }
  }
  EXPECT_GT(hits, ds.num_rows() * 95 / 100);
}

TEST(DecisionTreeTest, RegressionReducesVariance) {
  MlDataset ds = MakeRegressionData(400, 0.1, 3);
  DecisionTree tree({.max_depth = 6});
  std::vector<size_t> all(ds.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Rng rng(4);
  ASSERT_TRUE(tree.Fit(ds.x, ds.y, all, DecisionTree::Criterion::kVariance, 0,
                       &rng).ok());
  std::vector<double> pred(ds.num_rows());
  for (size_t i = 0; i < ds.num_rows(); ++i) {
    pred[i] = tree.PredictValue(ds.x.Row(i));
  }
  EXPECT_GT(R2Score(ds.y, pred), 0.7);
}

TEST(DecisionTreeTest, ImportanceFavorsSignalFeatures) {
  MlDataset ds = MakeRegressionData(500, 0.1, 5);
  DecisionTree tree({.max_depth = 6});
  std::vector<size_t> all(ds.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Rng rng(6);
  ASSERT_TRUE(tree.Fit(ds.x, ds.y, all, DecisionTree::Criterion::kVariance, 0,
                       &rng).ok());
  auto imp = tree.FeatureImportance(3);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[2]);
  EXPECT_NEAR(imp[0] + imp[1] + imp[2], 1.0, 1e-9);
}

TEST(DecisionTreeTest, RejectsBadInput) {
  DecisionTree tree;
  Matrix x(2, 1);
  Rng rng(1);
  EXPECT_FALSE(tree.Fit(x, {1.0}, {0}, DecisionTree::Criterion::kVariance, 0,
                        &rng).ok());
  EXPECT_FALSE(tree.Fit(x, {1.0, 2.0}, {}, DecisionTree::Criterion::kVariance,
                        0, &rng).ok());
  EXPECT_FALSE(tree.Fit(x, {1.0, 2.0}, {0, 1},
                        DecisionTree::Criterion::kGini, 1, &rng).ok());
}

TEST(DecisionTreeTest, SingleValueTargetYieldsLeaf) {
  Matrix x(4, 1);
  for (size_t i = 0; i < 4; ++i) x.At(i, 0) = i;
  DecisionTree tree;
  Rng rng(7);
  ASSERT_TRUE(tree.Fit(x, {5, 5, 5, 5}, {0, 1, 2, 3},
                       DecisionTree::Criterion::kVariance, 0, &rng).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictValue(x.Row(0)), 5.0);
}

// ----------------------------------------------------------- FeatureBins

/// Columns: heavy duplicates (8 values), negative continuous, a constant,
/// and a continuous column with more distinct values than the bins.
Matrix BinningMatrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 4);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = static_cast<double>(rng.UniformInt(8)) - 3.0;
    x.At(i, 1) = -std::fabs(rng.Normal()) * 100.0;
    x.At(i, 2) = -2.5;
    x.At(i, 3) = rng.Normal();
  }
  return x;
}

TEST(FeatureBinsTest, CodesAgreeWithThresholds) {
  const Matrix x = BinningMatrix(500, 50);
  for (int max_bins : {2, 7, 16, 64, 0}) {
    const FeatureBins bins(x, max_bins);
    ASSERT_EQ(bins.rows(), x.rows());
    ASSERT_EQ(bins.features(), x.cols());
    for (size_t f = 0; f < x.cols(); ++f) {
      const auto& cuts = bins.cuts(f);
      if (max_bins > 0) {
        EXPECT_LE(bins.num_bins(f), size_t(max_bins));
      }
      for (size_t b = 1; b < cuts.size(); ++b) EXPECT_LT(cuts[b - 1], cuts[b]);
      for (size_t r = 0; r < x.rows(); ++r) {
        const uint16_t code = bins.codes(f)[r];
        ASSERT_LT(code, bins.num_bins(f));
        for (size_t b = 0; b < cuts.size(); ++b) {
          ASSERT_EQ(x.At(r, f) <= cuts[b], code <= b)
              << "feature " << f << " row " << r << " cut " << b;
        }
      }
    }
    EXPECT_EQ(bins.num_bins(2), 1u);  // The constant column: one bin.
  }
}

TEST(FeatureBinsTest, NanTakesTheLastBinLikeThePredictPath) {
  Matrix x(3, 1);
  x.At(0, 0) = 1.0;
  x.At(1, 0) = std::numeric_limits<double>::quiet_NaN();
  x.At(2, 0) = 2.0;
  const FeatureBins bins(x, 8);
  ASSERT_EQ(bins.cuts(0).size(), 1u);
  EXPECT_EQ(bins.codes(0)[1], 1u);
  EXPECT_FALSE(x.At(1, 0) <= bins.cuts(0)[0]);
}

TEST(FeatureBinsTest, FewDistinctValuesMakeEveryBoundaryACandidate) {
  const Matrix x = BinningMatrix(400, 51);
  const FeatureBins bins(x, 8);
  // Column 0 holds exactly the 8 values -3..4: 7 cuts, one per boundary,
  // strictly between each adjacent pair.
  ASSERT_EQ(bins.cuts(0).size(), 7u);
  for (size_t b = 0; b < 7; ++b) {
    EXPECT_GT(bins.cuts(0)[b], -3.0 + double(b));
    EXPECT_LT(bins.cuts(0)[b], -2.0 + double(b));
  }
  // Column 3 has ~400 distinct values: 8 roughly equal-frequency bins.
  ASSERT_EQ(bins.num_bins(3), 8u);
  std::vector<size_t> per_bin(8, 0);
  for (size_t r = 0; r < x.rows(); ++r) ++per_bin[bins.codes(3)[r]];
  for (size_t c : per_bin) EXPECT_NEAR(double(c), 50.0, 2.0);

  // A step at the rarest boundary (value 4 is 1/8 of the rows) is found
  // exactly by a depth-1 tree.
  std::vector<double> y(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) y[r] = x.At(r, 0) >= 4.0 ? 1.0 : 0.0;
  std::vector<size_t> all(x.rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree stump({.max_depth = 1, .min_samples_leaf = 1, .max_bins = 8});
  Rng rng(52);
  ASSERT_TRUE(stump.Fit(x, y, all, DecisionTree::Criterion::kVariance, 0,
                        &rng).ok());
  for (size_t r = 0; r < x.rows(); ++r) {
    EXPECT_DOUBLE_EQ(stump.PredictValue(x.Row(r)), y[r]);
  }
}

TEST(FeatureBinsTest, ConstantColumnNeverSplits) {
  Matrix x(50, 1, 7.0);
  std::vector<double> y(50);
  std::vector<size_t> all(50);
  for (size_t i = 0; i < 50; ++i) {
    y[i] = double(i % 5);
    all[i] = i;
  }
  DecisionTree tree;
  Rng rng(53);
  ASSERT_TRUE(tree.Fit(x, y, all, DecisionTree::Criterion::kVariance, 0, &rng)
                  .ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
}

/// Fits `tree` on all rows of (x, y) and checks that routing each training
/// row by threshold (PredictValue) lands it in the leaf its codes built:
/// every group of rows sharing a predicted value has that value as its
/// mean target, and at least min_samples_leaf rows.
void ExpectLeavesMatchCodePartition(const Matrix& x,
                                    const std::vector<double>& y,
                                    const TreeOptions& options) {
  std::vector<size_t> all(x.rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  DecisionTree tree(options);
  Rng rng(54);
  ASSERT_TRUE(tree.Fit(x, y, all, DecisionTree::Criterion::kVariance, 0, &rng)
                  .ok());
  ASSERT_GT(tree.num_nodes(), 1u);
  std::map<double, std::pair<double, size_t>> leaves;  // value -> (sum, n)
  for (size_t r = 0; r < x.rows(); ++r) {
    auto& leaf = leaves[tree.PredictValue(x.Row(r))];
    leaf.first += y[r];
    ++leaf.second;
  }
  for (const auto& [value, leaf] : leaves) {
    EXPECT_NEAR(leaf.first / double(leaf.second), value, 1e-9);
    EXPECT_GE(leaf.second, options.min_samples_leaf);
  }
}

TEST(DecisionTreeTest, LeafAssignmentByThresholdEqualsCodePartition) {
  const Matrix x = BinningMatrix(600, 55);
  std::vector<double> y(x.rows());
  Rng rng(56);
  for (size_t r = 0; r < x.rows(); ++r) {
    // Distinct targets keep leaf means distinct.
    y[r] = x.At(r, 0) + 0.01 * x.At(r, 1) + x.At(r, 3) + 1e-3 * rng.Normal();
  }
  for (int max_bins : {4, 16, 64, 0}) {
    ExpectLeavesMatchCodePartition(
        x, y, {.max_depth = 6, .min_samples_leaf = 3, .max_bins = max_bins});
  }
}

TEST(DecisionTreeTest, DuplicateSampleRowsWeighLikeCopiedRows) {
  // A bootstrap sample (rows repeated) must fit the same tree as the
  // physically copied rows. Few distinct values keep the bins identical.
  const size_t n = 120;
  Rng rng(57);
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = double(rng.UniformInt(10));
    x.At(i, 1) = double(rng.UniformInt(6));
    y[i] = double(rng.UniformInt(3));
  }
  std::vector<size_t> sample;
  for (size_t i = 0; i < n; ++i) sample.push_back(rng.UniformInt(n));
  Matrix copied(n, 2);
  std::vector<double> copied_y(n);
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) {
    copied.At(i, 0) = x.At(sample[i], 0);
    copied.At(i, 1) = x.At(sample[i], 1);
    copied_y[i] = y[sample[i]];
    all[i] = i;
  }
  const TreeOptions options{.max_depth = 5, .min_samples_leaf = 2};
  DecisionTree boot(options), copy(options);
  Rng ra(58), rb(58);
  ASSERT_TRUE(boot.Fit(x, y, sample, DecisionTree::Criterion::kGini, 3, &ra)
                  .ok());
  ASSERT_TRUE(copy.Fit(copied, copied_y, all, DecisionTree::Criterion::kGini,
                       3, &rb)
                  .ok());
  EXPECT_EQ(boot.num_nodes(), copy.num_nodes());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(boot.PredictDistribution(x.Row(i)),
              copy.PredictDistribution(x.Row(i)));
  }
}

/// Predictions of every tree ensemble on `test`, fitted on fixed data.
std::vector<std::vector<double>> FitAllTreeModels(uint64_t seed) {
  const MlDataset reg = MakeRegressionData(300, 0.2, seed);
  const MlDataset cls = MakeClassificationData(300, seed + 1, 3);
  std::vector<std::vector<double>> out;
  GradientBoostingRegressor gbr({.num_rounds = 15, .subsample = 0.8});
  ForestOptions forest;
  forest.num_trees = 6;
  RandomForestRegressor rfr(forest);
  GradientBoostingClassifier gbc(LightGbmLiteOptions());
  RandomForestClassifier rfc(forest);
  for (MlModel* m : std::initializer_list<MlModel*>{&gbr, &rfr}) {
    Rng rng(seed + 2);
    EXPECT_TRUE(m->Fit(reg, &rng).ok());
    out.push_back(m->Predict(reg.x));
  }
  for (MlModel* m : std::initializer_list<MlModel*>{&gbc, &rfc}) {
    Rng rng(seed + 3);
    EXPECT_TRUE(m->Fit(cls, &rng).ok());
    for (const auto& row : m->PredictProba(cls.x)) out.push_back(row);
  }
  return out;
}

TEST(DecisionTreeTest, FitsAreBitIdenticalAcrossRunsAndPoolSizes) {
  const auto reference = FitAllTreeModels(60);
  EXPECT_EQ(FitAllTreeModels(60), reference);  // operator== on doubles.
  for (size_t threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<std::vector<std::vector<double>>> fits(8);
    ASSERT_TRUE(ParallelFor(&pool, 0, fits.size(), [&](size_t i) {
                  fits[i] = FitAllTreeModels(60);
                }).ok());
    for (const auto& fit : fits) EXPECT_EQ(fit, reference) << threads;
  }
}

// ---------------------------------------------------------------- Forest

ForestOptions SmallForest(int num_trees) {
  ForestOptions o;
  o.num_trees = num_trees;
  return o;
}

TEST(RandomForestTest, ClassifierBeatsChance) {
  MlDataset train = MakeClassificationData(400, 10, 3);
  MlDataset test = MakeClassificationData(200, 11, 3);
  RandomForestClassifier rf(SmallForest(15));
  Rng rng(12);
  ASSERT_TRUE(rf.Fit(train, &rng).ok());
  auto pred = rf.Predict(test.x);
  std::vector<int> pi(pred.begin(), pred.end());
  EXPECT_GT(Accuracy(test.LabelsAsInt(), pi), 0.9);
}

TEST(RandomForestTest, ProbaRowsSumToOne) {
  MlDataset train = MakeClassificationData(200, 13);
  RandomForestClassifier rf(SmallForest(8));
  Rng rng(14);
  ASSERT_TRUE(rf.Fit(train, &rng).ok());
  auto proba = rf.PredictProba(train.x);
  for (const auto& row : proba) {
    double s = 0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      s += p;
    }
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(RandomForestTest, RegressorFitsSignal) {
  MlDataset train = MakeRegressionData(500, 0.2, 15);
  MlDataset test = MakeRegressionData(200, 0.2, 16);
  RandomForestRegressor rf(SmallForest(20));
  Rng rng(17);
  ASSERT_TRUE(rf.Fit(train, &rng).ok());
  EXPECT_GT(R2Score(test.y, rf.Predict(test.x)), 0.6);
}

TEST(RandomForestTest, RejectsWrongTask) {
  MlDataset reg = MakeRegressionData(50, 0.1, 18);
  RandomForestClassifier rf;
  Rng rng(19);
  EXPECT_FALSE(rf.Fit(reg, &rng).ok());
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  MlDataset train = MakeClassificationData(150, 20);
  RandomForestClassifier a(SmallForest(5)), b(SmallForest(5));
  Rng ra(21), rb(21);
  ASSERT_TRUE(a.Fit(train, &ra).ok());
  ASSERT_TRUE(b.Fit(train, &rb).ok());
  EXPECT_EQ(a.Predict(train.x), b.Predict(train.x));
}

// ---------------------------------------------------------------- GBM

TEST(GbmTest, RegressorTrainingLossNonIncreasing) {
  MlDataset train = MakeRegressionData(300, 0.3, 22);
  GradientBoostingRegressor gbm({.num_rounds = 30});
  Rng rng(23);
  ASSERT_TRUE(gbm.Fit(train, &rng).ok());
  const auto& loss = gbm.training_loss();
  ASSERT_EQ(loss.size(), 30u);
  for (size_t i = 1; i < loss.size(); ++i) {
    EXPECT_LE(loss[i], loss[i - 1] + 1e-9) << "round " << i;
  }
}

TEST(GbmTest, RegressorGeneralizes) {
  MlDataset train = MakeRegressionData(600, 0.2, 24);
  MlDataset test = MakeRegressionData(300, 0.2, 25);
  GradientBoostingRegressor gbm({.num_rounds = 60});
  Rng rng(26);
  ASSERT_TRUE(gbm.Fit(train, &rng).ok());
  EXPECT_GT(R2Score(test.y, gbm.Predict(test.x)), 0.85);
}

TEST(GbmTest, ClassifierSeparatesBlobs) {
  MlDataset train = MakeClassificationData(400, 27, 3);
  MlDataset test = MakeClassificationData(200, 28, 3);
  GradientBoostingClassifier gbm({.num_rounds = 25});
  Rng rng(29);
  ASSERT_TRUE(gbm.Fit(train, &rng).ok());
  auto pred = gbm.Predict(test.x);
  std::vector<int> pi(pred.begin(), pred.end());
  EXPECT_GT(Accuracy(test.LabelsAsInt(), pi), 0.9);
}

TEST(GbmTest, ClassifierProbaValid) {
  MlDataset train = MakeClassificationData(200, 30);
  GradientBoostingClassifier gbm({.num_rounds = 10});
  Rng rng(31);
  ASSERT_TRUE(gbm.Fit(train, &rng).ok());
  for (const auto& row : gbm.PredictProba(train.x)) {
    double s = 0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      s += p;
    }
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(GbmTest, LightGbmLiteOptionsAreHistogramFlavoured) {
  GbmOptions opt = LightGbmLiteOptions();
  EXPECT_LE(opt.tree.max_bins, 32);
  EXPECT_LT(opt.subsample, 1.0);
}

TEST(GbmTest, RejectsEmptyData) {
  MlDataset empty;
  empty.task = TaskKind::kRegression;
  GradientBoostingRegressor gbm;
  Rng rng(1);
  EXPECT_FALSE(gbm.Fit(empty, &rng).ok());
}

// ------------------------------------------------- Ensemble importance

/// Columns: informative (the target is a step of it), noise, constant.
MlDataset SignalNoiseConstant(TaskKind task, size_t n, uint64_t seed) {
  Rng rng(seed);
  MlDataset ds;
  ds.task = task;
  ds.num_classes = task == TaskKind::kClassification ? 2 : 0;
  ds.x = Matrix(n, 3);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double signal = rng.Uniform(-1, 1);
    ds.x.At(i, 0) = signal;
    ds.x.At(i, 1) = rng.Uniform(-1, 1);
    ds.x.At(i, 2) = 3.0;
    const bool high = signal > 0.2;
    ds.y[i] = task == TaskKind::kClassification
                  ? (high ? 1.0 : 0.0)
                  : (high ? 2.0 : -1.0) + rng.Normal(0.0, 0.1);
  }
  return ds;
}

TEST(EnsembleImportanceTest, RanksSignalAndZeroesConstant) {
  const MlDataset reg = SignalNoiseConstant(TaskKind::kRegression, 300, 31);
  const MlDataset clf =
      SignalNoiseConstant(TaskKind::kClassification, 300, 32);
  GradientBoostingRegressor gbm_reg;
  GradientBoostingClassifier gbm_clf;
  RandomForestClassifier rf_clf;
  const std::pair<MlModel*, const MlDataset*> cases[] = {
      {&gbm_reg, &reg}, {&gbm_clf, &clf}, {&rf_clf, &clf}};
  for (const auto& [model, data] : cases) {
    SCOPED_TRACE(model->Name());
    Rng rng(33);
    ASSERT_TRUE(model->Fit(*data, &rng).ok());
    const std::vector<double> imp = model->FeatureImportance();
    ASSERT_EQ(imp.size(), 3u);
    EXPECT_NEAR(imp[0] + imp[1] + imp[2], 1.0, 1e-9);
    EXPECT_GT(imp[0], imp[1]);
    EXPECT_EQ(imp[2], 0.0);
  }
}

// ---------------------------------------------------------------- Linear

TEST(RidgeTest, RecoversLinearCoefficients) {
  MlDataset train = MakeRegressionData(500, 0.01, 32);
  RidgeRegressor ridge(1e-6);
  Rng rng(33);
  ASSERT_TRUE(ridge.Fit(train, &rng).ok());
  ASSERT_EQ(ridge.coefficients().size(), 3u);
  EXPECT_NEAR(ridge.coefficients()[0], 2.0, 0.05);
  EXPECT_NEAR(ridge.coefficients()[1], -1.0, 0.05);
  EXPECT_NEAR(ridge.coefficients()[2], 0.0, 0.05);
}

TEST(RidgeTest, ImportanceRanksSignal) {
  MlDataset train = MakeRegressionData(500, 0.1, 34);
  RidgeRegressor ridge;
  Rng rng(35);
  ASSERT_TRUE(ridge.Fit(train, &rng).ok());
  auto imp = ridge.FeatureImportance();
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[2]);
}

TEST(RidgeTest, HandlesConstantFeature) {
  MlDataset ds = MakeRegressionData(100, 0.1, 36);
  for (size_t i = 0; i < ds.num_rows(); ++i) ds.x.At(i, 2) = 1.0;
  RidgeRegressor ridge;
  Rng rng(37);
  EXPECT_TRUE(ridge.Fit(ds, &rng).ok());
}

TEST(LogisticTest, SeparatesBlobs) {
  MlDataset train = MakeClassificationData(300, 38);
  MlDataset test = MakeClassificationData(150, 39);
  LogisticRegressor lr;
  Rng rng(40);
  ASSERT_TRUE(lr.Fit(train, &rng).ok());
  auto pred = lr.Predict(test.x);
  std::vector<int> pi(pred.begin(), pred.end());
  EXPECT_GT(Accuracy(test.LabelsAsInt(), pi), 0.95);
}

TEST(LogisticTest, MulticlassWorks) {
  MlDataset train = MakeClassificationData(400, 41, 3);
  LogisticRegressor lr;
  Rng rng(42);
  ASSERT_TRUE(lr.Fit(train, &rng).ok());
  auto pred = lr.Predict(train.x);
  std::vector<int> pi(pred.begin(), pred.end());
  EXPECT_GT(Accuracy(train.LabelsAsInt(), pi), 0.9);
}

// ---------------------------------------------------------------- MO-GBM

TEST(MultiOutputGbmTest, FitsIndependentOutputs) {
  Rng rng(43);
  const size_t n = 300;
  Matrix x(n, 2), y(n, 2);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Normal(), b = rng.Normal();
    x.At(i, 0) = a;
    x.At(i, 1) = b;
    y.At(i, 0) = 3.0 * a;
    y.At(i, 1) = -2.0 * b;
  }
  MultiOutputGbm mo({.num_rounds = 40});
  Rng fit_rng(44);
  ASSERT_TRUE(mo.Fit(x, y, &fit_rng).ok());
  EXPECT_EQ(mo.num_outputs(), 2u);
  Matrix pred = mo.Predict(x);
  std::vector<double> y0(n), p0(n), y1(n), p1(n);
  for (size_t i = 0; i < n; ++i) {
    y0[i] = y.At(i, 0);
    p0[i] = pred.At(i, 0);
    y1[i] = y.At(i, 1);
    p1[i] = pred.At(i, 1);
  }
  EXPECT_GT(R2Score(y0, p0), 0.85);
  EXPECT_GT(R2Score(y1, p1), 0.85);
  // PredictRow agrees with Predict.
  auto row0 = mo.PredictRow(x.Row(0));
  EXPECT_NEAR(row0[0], pred.At(0, 0), 1e-9);
  EXPECT_NEAR(row0[1], pred.At(0, 1), 1e-9);
}

TEST(MultiOutputGbmTest, RejectsMismatch) {
  MultiOutputGbm mo;
  Matrix x(3, 1), y(2, 1);
  Rng rng(1);
  EXPECT_FALSE(mo.Fit(x, y, &rng).ok());
  Matrix y2(3, 0);
  EXPECT_FALSE(mo.Fit(x, y2, &rng).ok());
}

// ------------------------------------------------------- Feature scores

TEST(FeatureScoresTest, FisherSeparatedVsNoise) {
  Rng rng(45);
  const size_t n = 400;
  std::vector<double> good(n), noise(n);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(2));
    good[i] = labels[i] * 4.0 + rng.Normal(0.0, 0.5);
    noise[i] = rng.Normal();
  }
  EXPECT_GT(FisherScore(good, labels, 2), 5.0);
  EXPECT_LT(FisherScore(noise, labels, 2), 0.1);
}

TEST(FeatureScoresTest, MutualInformationOrdersFeatures) {
  Rng rng(46);
  const size_t n = 600;
  std::vector<double> good(n), noise(n);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(2));
    good[i] = labels[i] * 3.0 + rng.Normal(0.0, 0.5);
    noise[i] = rng.Normal();
  }
  EXPECT_GT(MutualInformation(good, labels, 2),
            MutualInformation(noise, labels, 2) + 0.2);
  EXPECT_DOUBLE_EQ(MutualInformation(std::vector<double>(n, 1.0), labels, 2),
                   0.0);
}

TEST(FeatureScoresTest, DiscretizeTargetBalancedQuantiles) {
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) y.push_back(i);
  auto labels = DiscretizeTarget(y, 4);
  std::vector<int> counts(4, 0);
  for (int l : labels) counts[l]++;
  for (int c : counts) EXPECT_EQ(c, 25);
}

class GbmRoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(GbmRoundsTest, MoreRoundsNeverHurtTrainingLoss) {
  MlDataset train = MakeRegressionData(200, 0.3, 47);
  GradientBoostingRegressor gbm({.num_rounds = GetParam()});
  Rng rng(48);
  ASSERT_TRUE(gbm.Fit(train, &rng).ok());
  const auto& loss = gbm.training_loss();
  EXPECT_LE(loss.back(), loss.front() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Rounds, GbmRoundsTest,
                         ::testing::Values(5, 10, 20, 40, 80));

}  // namespace
}  // namespace modis
