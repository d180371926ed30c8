/// Tests for the extension components: NSGA-II (the paper's evolutionary
/// alternative), hypervolume indicators, the kNN regressor (a surrogate
/// family of bench_surrogates), the NSGA-II-over-bitmaps adapter, and the
/// skyline sizes every search path reports.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/nsga2_modis.h"
#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "ml/knn.h"
#include "moo/hypervolume.h"
#include "moo/nsga2.h"

namespace modis {
namespace {

// ---------------------------------------------------------------- NSGA-II

TEST(FastNonDominatedSortTest, RanksFronts) {
  std::vector<PerfVector> objs{{0.1, 0.9}, {0.9, 0.1}, {0.5, 0.5},
                               {0.6, 0.6}, {0.9, 0.9}};
  auto ranks = FastNonDominatedSort(objs);
  EXPECT_EQ(ranks[0], 0);
  EXPECT_EQ(ranks[1], 0);
  EXPECT_EQ(ranks[2], 0);
  EXPECT_EQ(ranks[3], 1);  // Dominated by {0.5,0.5} only.
  EXPECT_EQ(ranks[4], 2);  // Dominated by {0.6,0.6} too.
}

TEST(FastNonDominatedSortTest, Front0MatchesParetoFront) {
  Rng rng(1);
  std::vector<PerfVector> objs;
  for (int i = 0; i < 80; ++i) {
    objs.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform()});
  }
  auto ranks = FastNonDominatedSort(objs);
  auto front = ParetoFrontNaive(objs);
  std::set<size_t> front_set(front.begin(), front.end());
  for (size_t i = 0; i < objs.size(); ++i) {
    // Duplicates can differ (front dedups); skip them.
    bool duplicate = false;
    for (size_t j = 0; j < i; ++j) duplicate |= (objs[j] == objs[i]);
    if (duplicate) continue;
    EXPECT_EQ(ranks[i] == 0, front_set.count(i) > 0) << i;
  }
}

TEST(CrowdingDistanceTest, BoundariesAreInfinite) {
  std::vector<PerfVector> front{{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}};
  auto d = CrowdingDistance(front);
  EXPECT_TRUE(std::isinf(d[0]));
  EXPECT_TRUE(std::isinf(d[2]));
  EXPECT_FALSE(std::isinf(d[1]));
  EXPECT_GT(d[1], 0.0);
}

TEST(Nsga2Test, FindsFrontOfSeparableProblem) {
  // Objectives: f1 = fraction of zeros in the first half, f2 = fraction of
  // zeros in the second half -> the Pareto front trades the halves.
  const size_t glen = 16;
  Nsga2Fitness fitness =
      [](const std::vector<uint8_t>& g) -> std::optional<PerfVector> {
    double a = 0, b = 0;
    for (size_t i = 0; i < g.size() / 2; ++i) a += g[i] == 0;
    for (size_t i = g.size() / 2; i < g.size(); ++i) b += g[i] == 0;
    return PerfVector{0.01 + a / g.size(), 0.01 + b / g.size()};
  };
  Nsga2Options opts;
  opts.population = 24;
  opts.generations = 20;
  Nsga2Result result = RunNsga2(std::vector<uint8_t>(glen, 0), fitness, opts);
  ASSERT_FALSE(result.front.empty());
  // The all-ones genome (both objectives minimal) must be discovered.
  bool found_ideal = false;
  for (const auto& ind : result.front) {
    bool all_one = true;
    for (uint8_t b : ind.genome) all_one &= (b == 1);
    found_ideal |= all_one;
  }
  EXPECT_TRUE(found_ideal);
  // Front members are mutually non-dominated.
  for (const auto& a : result.front) {
    for (const auto& b : result.front) {
      if (&a != &b) {
        EXPECT_FALSE(Dominates(a.objectives, b.objectives));
      }
    }
  }
}

TEST(Nsga2Test, RespectsEvaluationBudget) {
  Nsga2Fitness fitness =
      [](const std::vector<uint8_t>& g) -> std::optional<PerfVector> {
    return PerfVector{0.5, static_cast<double>(g[0]) + 0.1};
  };
  Nsga2Options opts;
  opts.max_evaluations = 37;
  Nsga2Result result = RunNsga2({1, 0, 1}, fitness, opts);
  EXPECT_LE(result.evaluations, 37u);
}

TEST(Nsga2Test, InfeasibleGenomesAreSkipped) {
  Nsga2Fitness fitness =
      [](const std::vector<uint8_t>& g) -> std::optional<PerfVector> {
    if (g[0] == 0) return std::nullopt;  // Constraint: first bit on.
    return PerfVector{0.5, 0.5};
  };
  Nsga2Options opts;
  opts.population = 10;
  opts.generations = 5;
  Nsga2Result result = RunNsga2({1, 1, 1, 1}, fitness, opts);
  for (const auto& ind : result.front) EXPECT_EQ(ind.genome[0], 1);
}

// ------------------------------------------------------------ Hypervolume

TEST(HypervolumeTest, SinglePoint2D) {
  // Box from (0.2,0.3) to reference (1,1): 0.8 * 0.7.
  EXPECT_NEAR(Hypervolume2D({{0.2, 0.3}}, {1.0, 1.0}), 0.56, 1e-12);
}

TEST(HypervolumeTest, DominatedPointAddsNothing) {
  const double alone = Hypervolume2D({{0.2, 0.3}}, {1.0, 1.0});
  const double with_dominated =
      Hypervolume2D({{0.2, 0.3}, {0.5, 0.5}}, {1.0, 1.0});
  EXPECT_NEAR(alone, with_dominated, 1e-12);
}

TEST(HypervolumeTest, UnionOfBoxes) {
  // {0.2,0.6} and {0.6,0.2} vs ref (1,1): 0.8*0.4 + 0.4*(0.6-0.2).
  EXPECT_NEAR(Hypervolume2D({{0.2, 0.6}, {0.6, 0.2}}, {1.0, 1.0}),
              0.8 * 0.4 + 0.4 * 0.4, 1e-12);
}

TEST(HypervolumeTest, PointsOutsideReferenceIgnored) {
  EXPECT_DOUBLE_EQ(Hypervolume2D({{1.5, 0.2}}, {1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(Hypervolume2D({}, {1.0, 1.0}), 0.0);
}

TEST(HypervolumeTest, MonteCarloAgreesWith2DExact) {
  Rng rng(2);
  std::vector<PerfVector> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back({rng.Uniform(0.05, 0.9), rng.Uniform(0.05, 0.9)});
  }
  const PerfVector ref{1.0, 1.0};
  const double exact = Hypervolume2D(pts, ref);
  Rng mc(3);
  const double estimate = HypervolumeMonteCarlo(pts, ref, 60000, &mc);
  EXPECT_NEAR(estimate, exact, 0.02);
}

TEST(HypervolumeTest, MoreNonDominatedPointsNeverShrink) {
  Rng rng(4);
  std::vector<PerfVector> pts{{0.3, 0.3, 0.3}};
  const PerfVector ref{1.0, 1.0, 1.0};
  const double before = Hypervolume(pts, ref, 30000, 5);
  pts.push_back({0.1, 0.6, 0.6});
  const double after = Hypervolume(pts, ref, 30000, 5);
  EXPECT_GE(after, before - 0.01);
}

// -------------------------------------------------------------------- kNN

TEST(KnnTest, RegressorInterpolates) {
  Rng rng(13);
  MlDataset ds;
  ds.task = TaskKind::kRegression;
  ds.x = Matrix(200, 1);
  ds.y.resize(200);
  for (size_t i = 0; i < 200; ++i) {
    const double x = rng.Uniform(-3, 3);
    ds.x.At(i, 0) = x;
    ds.y[i] = std::sin(x);
  }
  KnnRegressor knn({.k = 5});
  Rng fit(14);
  ASSERT_TRUE(knn.Fit(ds, &fit).ok());
  Matrix q(1, 1);
  q.At(0, 0) = 1.0;
  EXPECT_NEAR(knn.Predict(q)[0], std::sin(1.0), 0.15);
}

TEST(KnnTest, RejectsWrongTaskAndEmpty) {
  KnnRegressor knn;
  Rng rng(15);
  MlDataset clf;
  clf.task = TaskKind::kClassification;
  clf.num_classes = 2;
  EXPECT_FALSE(knn.Fit(clf, &rng).ok());
  MlDataset empty;
  empty.task = TaskKind::kRegression;
  EXPECT_FALSE(knn.Fit(empty, &rng).ok());
}

// ------------------------------------------------------------ NSGA2-MODis

TEST(Nsga2ModisTest, ProducesFeasibleFront) {
  auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4);
  ASSERT_TRUE(bench.ok());
  auto universe = SearchUniverse::Build(bench->universal,
                                        bench->universe_options);
  ASSERT_TRUE(universe.ok());
  auto evaluator = bench->MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());

  Nsga2Options opts;
  opts.population = 12;
  opts.generations = 3;
  opts.max_evaluations = 60;
  auto result = RunNsga2Modis(*universe, &oracle, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->evaluations, 60u);
  ASSERT_FALSE(result->skyline.empty());
  const auto& layout = universe->layout();
  for (const auto& e : result->skyline) {
    // Protected attributes stay on.
    for (size_t a = 0; a < layout.num_attributes(); ++a) {
      if (!layout.attr_flippable[a]) {
        EXPECT_TRUE(e.state.Get(a));
      }
    }
    EXPECT_GT(e.rows, 0u);
  }
}

// ------------------------------------------------------ Reported sizes

/// Every member's `rows` is the row count of the dataset its state
/// denotes, and its `cols` the attributes the state includes.
void ExpectSizesMatchData(const SearchUniverse& universe,
                          const std::vector<SkylineEntry>& skyline,
                          const std::string& context) {
  ASSERT_FALSE(skyline.empty()) << context;
  for (const SkylineEntry& e : skyline) {
    const std::string where = context + " " + e.state.Signature();
    EXPECT_EQ(e.rows, universe.Materialize(e.state).num_rows()) << where;
    size_t included = 0;
    for (size_t a = 0; a < universe.layout().num_attributes(); ++a) {
      if (e.state.Get(a)) ++included;
    }
    EXPECT_EQ(e.cols, included) << where;
  }
}

TEST(SkylineSizesTest, RowsAndColsMatchTheMaterializedDataset) {
  auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4);  // T2.
  ASSERT_TRUE(bench.ok());
  auto universe = SearchUniverse::Build(bench->universal,
                                        bench->universe_options);
  ASSERT_TRUE(universe.ok());

  ModisConfig config;
  config.epsilon = 0.25;
  config.max_states = 60;
  config.max_level = 3;
  using Variant = Result<ModisResult> (*)(const SearchUniverse&,
                                          PerformanceOracle*, ModisConfig);
  const std::pair<const char*, Variant> variants[] = {
      {"apx", RunApxModis}, {"nobi", RunNoBiModis}, {"bi", RunBiModis},
      {"div", RunDivModis}, {"exact", RunExactSkyline}};
  for (const auto& [name, run] : variants) {
    auto evaluator = bench->MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    auto result = run(*universe, &oracle, config);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    ExpectSizesMatchData(*universe, result->skyline, name);
  }

  auto evaluator = bench->MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  Nsga2Options options;
  options.population = 12;
  options.generations = 3;
  options.max_evaluations = 60;
  auto nsga2 = RunNsga2Modis(*universe, &oracle, options);
  ASSERT_TRUE(nsga2.ok()) << nsga2.status().ToString();
  ExpectSizesMatchData(*universe, nsga2->skyline, "nsga2");
}

}  // namespace
}  // namespace modis
