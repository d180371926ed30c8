/// End-to-end tests: full MODis pipelines over the synthetic lakes,
/// checking the paper's headline behaviours at test scale — skyline
/// datasets that beat the original on at least one measure, surrogate
/// search, and the graph task.

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "moo/pareto.h"

namespace modis {
namespace {

struct Pipeline {
  TabularBench bench;
  SearchUniverse universe;
  std::unique_ptr<SupervisedEvaluator> evaluator;

  static Pipeline Make(BenchTaskId id, double scale) {
    auto bench = MakeTabularBench(id, scale);
    EXPECT_TRUE(bench.ok());
    auto uni =
        SearchUniverse::Build(bench->universal, bench->universe_options);
    EXPECT_TRUE(uni.ok());
    Pipeline p{std::move(bench).value(), std::move(uni).value(), nullptr};
    p.evaluator = p.bench.MakeEvaluator();
    return p;
  }
};

/// A single-test request for the universal state (the original D_U).
ValuationRequest FullStateRequest(const SearchUniverse& universe) {
  const StateBitmap full = universe.FullBitmap();
  ValuationRequest req;
  req.key = full.Signature();
  req.features = universe.StateFeatures(full);
  req.universe = &universe;
  req.materialize = [&universe, full]() {
    return universe.MaterializeRecord(full);
  };
  return req;
}

/// Index of the measure named `name` in the task's measure vector.
size_t MeasureIndex(const SupervisedTask& task, const std::string& name) {
  for (size_t i = 0; i < task.measures.size(); ++i) {
    if (task.measures[i].name == name) return i;
  }
  ADD_FAILURE() << "no measure " << name;
  return 0;
}

TEST(IntegrationTest, HouseSkylineImprovesOverOriginal) {
  Pipeline p = Pipeline::Make(BenchTaskId::kHouse, 0.5);
  PerformanceOracle oracle(p.evaluator.get());

  auto original = oracle.Valuate(FullStateRequest(p.universe));
  ASSERT_TRUE(original.ok());

  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 150;
  cfg.max_level = 3;
  auto result = RunApxModis(p.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->skyline.empty());

  // Best-f1 skyline table must beat the original's F1 (the corrupted
  // segments are removable).
  const size_t f1 = MeasureIndex(p.bench.task, "f1");
  double best = 0.0;
  for (const auto& e : result->skyline) {
    best = std::max(best, e.eval.raw[f1]);
  }
  EXPECT_GT(best, original->raw[f1]);
}

TEST(IntegrationTest, SurrogateSearchFindsComparableSkyline) {
  Pipeline p = Pipeline::Make(BenchTaskId::kHouse, 0.5);

  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 150;
  cfg.max_level = 3;

  // Exact search.
  PerformanceOracle exact(p.evaluator.get());
  auto exact_run = RunApxModis(p.universe, &exact, cfg);
  ASSERT_TRUE(exact_run.ok());

  // Surrogate search.
  auto eval2 = p.bench.MakeEvaluator();
  SurrogateOptions sopt;
  sopt.bootstrap_budget = 20;
  PerformanceOracle surrogate(eval2.get(), sopt);
  auto surr_run = RunApxModis(p.universe, &surrogate, cfg);
  ASSERT_TRUE(surr_run.ok());
  ASSERT_FALSE(surr_run->skyline.empty());
  EXPECT_GT(surrogate.stats().surrogate_evals, 0u);
  // The surrogate must have avoided most exact valuations.
  EXPECT_LT(surrogate.stats().exact_evals, exact.stats().exact_evals);
}

TEST(IntegrationTest, ModisBeatsFeatureSelectionOnAccuracyMeasure) {
  Pipeline p = Pipeline::Make(BenchTaskId::kHouse, 0.5);
  PerformanceOracle oracle(p.evaluator.get());

  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 150;
  cfg.max_level = 3;
  auto modis_run = RunNoBiModis(p.universe, &oracle, cfg);
  ASSERT_TRUE(modis_run.ok());
  ASSERT_FALSE(modis_run->skyline.empty());

  auto sksfm = RunSkSfm(p.bench.universal, p.evaluator.get(),
                        p.bench.model.get());
  ASSERT_TRUE(sksfm.ok());

  const size_t f1 = MeasureIndex(p.bench.task, "f1");
  double best = 0.0;
  for (const auto& e : modis_run->skyline) {
    best = std::max(best, e.eval.raw[f1]);
  }
  EXPECT_GT(best, sksfm->eval.raw[f1]);
}

TEST(IntegrationTest, RegressionTaskSkylineReducesError) {
  Pipeline p = Pipeline::Make(BenchTaskId::kAvocado, 0.25);
  PerformanceOracle oracle(p.evaluator.get());

  auto original = oracle.Valuate(FullStateRequest(p.universe));
  ASSERT_TRUE(original.ok());

  ModisConfig cfg;
  cfg.epsilon = 0.15;
  cfg.max_states = 120;
  cfg.max_level = 3;
  auto result = RunNoBiModis(p.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->skyline.empty());

  const size_t mse = MeasureIndex(p.bench.task, "mse");
  double best = 1e18;
  for (const auto& e : result->skyline) {
    best = std::min(best, e.eval.raw[mse]);
  }
  EXPECT_LT(best, original->raw[mse]);
}

TEST(IntegrationTest, GraphTaskSkylineImprovesPrecision) {
  auto bench = MakeGraphBench(0.6);
  ASSERT_TRUE(bench.ok());
  auto evaluator = bench->MakeEvaluator();

  SearchUniverse::Options opts;
  opts.protected_attributes = {"user", "item"};
  opts.max_clusters = 4;
  auto uni = SearchUniverse::Build(bench->lake.edge_table, opts);
  ASSERT_TRUE(uni.ok());

  PerformanceOracle oracle(evaluator.get());
  auto original = oracle.Valuate(FullStateRequest(*uni));
  ASSERT_TRUE(original.ok());

  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 60;
  cfg.max_level = 3;
  auto result = RunNoBiModis(*uni, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->skyline.empty());

  // p@5 is measure 0; removing low-affinity noise edges should improve it.
  double best = 0.0;
  for (const auto& e : result->skyline) {
    best = std::max(best, e.eval.raw[0]);
  }
  EXPECT_GE(best, original->raw[0]);
}

TEST(IntegrationTest, CaseStudyBoundsAreHonored) {
  // Case 2: every skyline dataset must satisfy acc >= 0.85 (normalized
  // 1-acc <= 0.15).
  Pipeline p = Pipeline::Make(BenchTaskId::kFeaturePool, 0.5);
  PerformanceOracle oracle(p.evaluator.get());
  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 120;
  cfg.max_level = 3;
  auto result = RunNoBiModis(p.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  const size_t acc = MeasureIndex(p.bench.task, "acc");
  for (const auto& e : result->skyline) {
    EXPECT_GE(e.eval.raw[acc], 0.85 - 1e-9);
  }
}

TEST(IntegrationTest, DivModisProducesDiverseSkyline) {
  Pipeline p = Pipeline::Make(BenchTaskId::kHouse, 0.5);
  PerformanceOracle oracle(p.evaluator.get());
  ModisConfig cfg;
  cfg.epsilon = 0.25;
  cfg.max_states = 150;
  cfg.max_level = 3;
  cfg.diversify_k = 4;
  auto result = RunDivModis(p.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->skyline.size(), 4u);
  ASSERT_FALSE(result->skyline.empty());
  // Members must differ in their bitmaps.
  for (size_t i = 0; i < result->skyline.size(); ++i) {
    for (size_t j = i + 1; j < result->skyline.size(); ++j) {
      EXPECT_FALSE(result->skyline[i].state == result->skyline[j].state);
    }
  }
}

}  // namespace
}  // namespace modis
