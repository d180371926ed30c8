#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <string>

#include "core/algorithms.h"
#include "core/engine.h"
#include "core/universe.h"
#include "datagen/tasks.h"
#include "moo/pareto.h"
#include "ops/operators.h"
#include "reference_encoder.h"

namespace modis {
namespace {

// ---------------------------------------------------------------- Bitmap

TEST(StateBitmapTest, FlipAndSignature) {
  StateBitmap s(4, true);
  EXPECT_EQ(s.Signature(), "1111");
  EXPECT_EQ(s.PopCount(), 4u);
  StateBitmap t = s.WithFlipped(1);
  EXPECT_EQ(t.Signature(), "1011");
  EXPECT_EQ(s.Signature(), "1111");  // Original untouched.
  EXPECT_EQ(t.PopCount(), 3u);
  EXPECT_FALSE(s == t);
  EXPECT_TRUE(t == s.WithFlipped(1));
}

TEST(StateBitmapTest, FeaturesMatchBits) {
  StateBitmap s(3, false);
  s.Set(2, true);
  EXPECT_EQ(s.Features(), (std::vector<double>{0.0, 0.0, 1.0}));
}

// ---------------------------------------------------------------- Universe

struct UniverseFixture {
  TabularBench bench;
  SearchUniverse universe;

  static UniverseFixture Make() {
    auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4);
    EXPECT_TRUE(bench.ok());
    auto uni = SearchUniverse::Build(bench->universal,
                                     bench->universe_options);
    EXPECT_TRUE(uni.ok());
    return {std::move(bench).value(), std::move(uni).value()};
  }
};

TEST(UniverseTest, LayoutProtectsTargetAndKey) {
  auto f = UniverseFixture::Make();
  const UnitLayout& layout = f.universe.layout();
  bool target_protected = false, key_protected = false;
  for (size_t a = 0; a < layout.num_attributes(); ++a) {
    if (layout.attributes[a] == f.bench.task.target) {
      target_protected = !layout.attr_flippable[a];
    }
    if (layout.attributes[a] == f.bench.lake.key()) {
      key_protected = !layout.attr_flippable[a];
    }
  }
  EXPECT_TRUE(target_protected);
  EXPECT_TRUE(key_protected);
  // No cluster units for protected attributes.
  for (const auto& cu : layout.clusters) {
    EXPECT_TRUE(layout.attr_flippable[cu.attr_index]);
  }
}

TEST(UniverseTest, FullBitmapMaterializesUniversal) {
  auto f = UniverseFixture::Make();
  Table full = f.universe.Materialize(f.universe.FullBitmap());
  EXPECT_EQ(full.num_rows(), f.bench.universal.num_rows());
  EXPECT_EQ(full.num_cols(), f.bench.universal.num_cols());
}

TEST(UniverseTest, AttributeFlipDropsColumn) {
  auto f = UniverseFixture::Make();
  const UnitLayout& layout = f.universe.layout();
  size_t flippable = layout.num_attributes();
  for (size_t a = 0; a < layout.num_attributes(); ++a) {
    if (layout.attr_flippable[a]) {
      flippable = a;
      break;
    }
  }
  ASSERT_LT(flippable, layout.num_attributes());
  StateBitmap s = f.universe.FullBitmap().WithFlipped(flippable);
  Table t = f.universe.Materialize(s);
  EXPECT_EQ(t.num_cols(), f.bench.universal.num_cols() - 1);
  EXPECT_FALSE(t.schema().HasField(layout.attributes[flippable]));
  EXPECT_EQ(t.num_rows(), f.bench.universal.num_rows());
}

TEST(UniverseTest, ClusterFlipMatchesReductOperator) {
  // Materializing with one cluster bit off must equal applying the Reduct
  // operator with that cluster's literal to the universal table.
  auto f = UniverseFixture::Make();
  const UnitLayout& layout = f.universe.layout();
  ASSERT_FALSE(layout.clusters.empty());
  const size_t unit = layout.num_attributes();  // First cluster unit.
  const Literal& literal = layout.clusters[0].literal;

  StateBitmap s = f.universe.FullBitmap().WithFlipped(unit);
  Table via_bitmap = f.universe.Materialize(s);
  auto via_reduct = Reduct(f.bench.universal, literal);
  ASSERT_TRUE(via_reduct.ok());
  EXPECT_EQ(via_bitmap.num_rows(), via_reduct->num_rows());
  EXPECT_EQ(via_bitmap.num_cols(), via_reduct->num_cols());
  // Spot-check the first rows cell by cell.
  for (size_t r = 0; r < std::min<size_t>(20, via_bitmap.num_rows()); ++r) {
    for (size_t c = 0; c < via_bitmap.num_cols(); ++c) {
      EXPECT_EQ(via_bitmap.At(r, c), via_reduct->At(r, c));
    }
  }
}

TEST(UniverseTest, CountRowsAgreesWithMaterialize) {
  auto f = UniverseFixture::Make();
  StateBitmap s = f.universe.FullBitmap();
  // Flip a few cluster bits.
  const size_t base = f.universe.layout().num_attributes();
  for (size_t i = 0; i < 3 && base + i < s.size(); ++i) {
    s = s.WithFlipped(base + i);
  }
  EXPECT_EQ(f.universe.CountRows(s), f.universe.Materialize(s).num_rows());
  EXPECT_NEAR(f.universe.RowFraction(s),
              static_cast<double>(f.universe.CountRows(s)) /
                  f.bench.universal.num_rows(),
              1e-12);
}

TEST(UniverseTest, BackwardBitmapIsMinimalTrainable) {
  auto f = UniverseFixture::Make();
  StateBitmap back = f.universe.BackwardBitmap();
  Table t = f.universe.Materialize(back);
  // Target, key, and one seed feature at least.
  EXPECT_GE(t.num_cols(), 3u);
  EXPECT_LT(t.num_cols(), f.bench.universal.num_cols());
  EXPECT_TRUE(t.schema().HasField(f.bench.task.target));
  // All rows present (cluster bits all on).
  EXPECT_EQ(t.num_rows(), f.bench.universal.num_rows());
}

TEST(UniverseTest, StateFeaturesAppendFractions) {
  auto f = UniverseFixture::Make();
  auto features = f.universe.StateFeatures(f.universe.FullBitmap());
  EXPECT_EQ(features.size(), f.universe.layout().num_units() + 2);
  EXPECT_DOUBLE_EQ(features[features.size() - 2], 1.0);  // Row fraction.
  EXPECT_DOUBLE_EQ(features.back(), 1.0);                // Column fraction.
}

TEST(UniverseTest, ProtectedAttributeMustExist) {
  auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4);
  ASSERT_TRUE(bench.ok());
  SearchUniverse::Options opts;
  opts.protected_attributes = {"no_such_column"};
  EXPECT_FALSE(SearchUniverse::Build(bench->universal, opts).ok());
}

// ---------------------------------------------------------------- Engine

ModisConfig SmallConfig() {
  ModisConfig cfg;
  cfg.epsilon = 0.25;
  cfg.max_states = 80;
  cfg.max_level = 3;
  return cfg;
}

TEST(EngineTest, SkylineIsMutuallyNonDominated) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  auto result = RunApxModis(f.universe, &oracle, SmallConfig());
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->skyline.empty());
  for (const auto& a : result->skyline) {
    for (const auto& b : result->skyline) {
      if (&a == &b) continue;
      EXPECT_FALSE(Dominates(a.eval.normalized, b.eval.normalized));
    }
  }
}

TEST(EngineTest, RespectsValuationBudget) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg = SmallConfig();
  cfg.max_states = 25;
  auto result = RunApxModis(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->valuated_states, 25u);
}

TEST(EngineTest, RespectsMaxLevel) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg = SmallConfig();
  cfg.max_level = 1;
  cfg.max_states = 10000;
  auto result = RunApxModis(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  for (const auto& e : result->skyline) EXPECT_LE(e.level, 1);
}

TEST(EngineTest, SkylineEpsilonCoversValuatedStates) {
  // Lemma 2: every valuated in-bounds state is ε-dominated by a skyline
  // member.
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg = SmallConfig();
  cfg.max_states = 60;
  auto result = RunApxModis(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());

  std::vector<PerfVector> kept;
  for (const auto& e : result->skyline) kept.push_back(e.eval.normalized);
  const auto upper = UpperBounds(oracle.measures());
  // train_time is wall-clock and jitters between identical runs; exclude
  // it from the strict cover check by relaxing epsilon slightly.
  const double check_eps = cfg.epsilon + 0.25;
  for (const auto& record : oracle.store().records()) {
    bool in_bounds = true;
    for (size_t j = 0; j < upper.size(); ++j) {
      if (record.eval.normalized[j] > upper[j] + 1e-12) in_bounds = false;
    }
    if (!in_bounds) continue;
    bool covered = false;
    for (const auto& k : kept) {
      if (EpsilonDominates(k, record.eval.normalized, check_eps)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << record.key;
  }
}

TEST(EngineTest, BidirectionalValuatesBackwardStates) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  auto result = RunNoBiModis(f.universe, &oracle, SmallConfig());
  ASSERT_TRUE(result.ok());
  // Some skyline states should have few columns (backward side) or the
  // backward seed must at least have been valuated: look for a record with
  // low column fraction.
  bool saw_small = false;
  for (const auto& r : oracle.store().records()) {
    if (r.features.back() < 0.5) saw_small = true;
  }
  EXPECT_TRUE(saw_small);
}

TEST(EngineTest, PruningNeverBreaksSkylineQuality) {
  // BiMODis (with pruning) must still produce a skyline that ε-covers the
  // NOBiMODis skyline within combined slack.
  auto f = UniverseFixture::Make();
  ModisConfig cfg = SmallConfig();

  auto eval1 = f.bench.MakeEvaluator();
  PerformanceOracle oracle1(eval1.get());
  auto no_prune = RunNoBiModis(f.universe, &oracle1, cfg);
  ASSERT_TRUE(no_prune.ok());

  auto eval2 = f.bench.MakeEvaluator();
  PerformanceOracle oracle2(eval2.get());
  auto pruned = RunBiModis(f.universe, &oracle2, cfg);
  ASSERT_TRUE(pruned.ok());

  ASSERT_FALSE(pruned->skyline.empty());
  EXPECT_LE(pruned->valuated_states, no_prune->valuated_states);
}

TEST(EngineTest, DivModisRespectsK) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg = SmallConfig();
  cfg.diversify_k = 3;
  auto result = RunDivModis(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->skyline.size(), 3u);
  EXPECT_FALSE(result->skyline.empty());
}

TEST(EngineTest, ExtremeEpsilonCollapsesGrid) {
  // A huge ε lumps all non-decisive measures into one grid cell, so the
  // kept set cannot out-size a fine grid's (with the same exploration
  // order under the exact oracle's determinism).
  auto f = UniverseFixture::Make();
  ModisConfig coarse = SmallConfig();
  coarse.epsilon = 50.0;
  ModisConfig fine = SmallConfig();
  fine.epsilon = 0.01;

  auto ev1 = f.bench.MakeEvaluator();
  PerformanceOracle o1(ev1.get());
  auto r_coarse = RunApxModis(f.universe, &o1, coarse);
  auto ev2 = f.bench.MakeEvaluator();
  PerformanceOracle o2(ev2.get());
  auto r_fine = RunApxModis(f.universe, &o2, fine);
  ASSERT_TRUE(r_coarse.ok() && r_fine.ok());
  EXPECT_GE(r_fine->skyline.size(), r_coarse->skyline.size());
  // With one grid cell per decisive comparison, the coarse skyline is a
  // handful at most.
  EXPECT_LE(r_coarse->skyline.size(), 3u);
}

TEST(ExactSkylineTest, MatchesParetoOverValuatedStates) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg = SmallConfig();
  cfg.max_states = 40;
  auto result = RunExactSkyline(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->skyline.empty());
  for (const auto& a : result->skyline) {
    for (const auto& b : result->skyline) {
      if (&a == &b) continue;
      EXPECT_FALSE(Dominates(a.eval.normalized, b.eval.normalized));
    }
  }
}

TEST(EngineTest, ApxSkylineEntriesComeFromValuatedStates) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  auto result = RunApxModis(f.universe, &oracle, SmallConfig());
  ASSERT_TRUE(result.ok());
  for (const auto& e : result->skyline) {
    EXPECT_NE(oracle.store().Find(e.state.Signature()), nullptr);
    EXPECT_GT(e.rows, 0u);
    EXPECT_GT(e.cols, 0u);
  }
}

TEST(EngineTest, EveryValuatedStateIsOneReductFromAnother) {
  // ApxMODis reduces from the universal state, so every other state it
  // valuates was generated by one Reduct flip (a unit 1 -> 0) of a state
  // it valuated before.
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg;
  cfg.epsilon = 0.25;
  cfg.max_states = 50;
  cfg.max_level = 2;
  ASSERT_TRUE(RunApxModis(f.universe, &oracle, cfg).ok());

  const std::string universal = f.universe.FullBitmap().Signature();
  std::set<std::string> valuated;
  for (const auto& record : oracle.store().records()) {
    valuated.insert(record.key);
  }
  EXPECT_EQ(valuated.size(), oracle.store().size());
  ASSERT_GT(valuated.size(), 1u);
  EXPECT_EQ(valuated.count(universal), 1u);
  for (const std::string& key : valuated) {
    if (key == universal) continue;
    bool has_parent = false;
    for (size_t unit = 0; unit < key.size() && !has_parent; ++unit) {
      if (key[unit] != '0') continue;
      std::string parent = key;
      parent[unit] = '1';
      has_parent = valuated.count(parent) > 0;
    }
    EXPECT_TRUE(has_parent) << key;
  }
}

TEST(EngineTest, ThreadCountDoesNotChangeTheSkyline) {
  // The batched valuation pipeline plans and commits on the caller thread
  // in a fixed order, so num_threads=1 and num_threads=4 must produce the
  // same skyline grid bit for bit. Runs the T1 (movie) task with its
  // wall-clock measure removed — "train_time" carries scheduling noise by
  // definition and would make any cross-run comparison flaky.
  auto bench = MakeTabularBench(BenchTaskId::kMovie, 0.3);
  ASSERT_TRUE(bench.ok());
  auto universe =
      SearchUniverse::Build(bench->universal, bench->universe_options);
  ASSERT_TRUE(universe.ok());

  SupervisedTask task = bench->task;
  task.measures.clear();
  for (const MeasureSpec& m : bench->task.measures) {
    if (m.name != "train_time") task.measures.push_back(m);
  }
  ASSERT_GE(task.measures.size(), 2u);

  auto run = [&](size_t num_threads) {
    SupervisedEvaluator evaluator(task, bench->model->Clone());
    PerformanceOracle oracle(&evaluator, SurrogateOptions{});
    ModisConfig cfg;
    cfg.epsilon = 0.25;
    cfg.max_states = 120;
    cfg.max_level = 4;
    cfg.num_threads = num_threads;
    auto result = RunBiModis(*universe, &oracle, cfg);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };

  ModisResult serial = run(1);
  ModisResult threaded = run(4);

  EXPECT_EQ(serial.valuated_states, threaded.valuated_states);
  EXPECT_EQ(serial.generated_states, threaded.generated_states);
  EXPECT_EQ(serial.pruned_states, threaded.pruned_states);
  EXPECT_EQ(serial.oracle_stats.exact_evals,
            threaded.oracle_stats.exact_evals);
  EXPECT_EQ(serial.oracle_stats.surrogate_evals,
            threaded.oracle_stats.surrogate_evals);

  ASSERT_EQ(serial.skyline.size(), threaded.skyline.size());
  ASSERT_FALSE(serial.skyline.empty());
  auto by_signature = [](const SkylineEntry& a, const SkylineEntry& b) {
    return a.state.Signature() < b.state.Signature();
  };
  std::sort(serial.skyline.begin(), serial.skyline.end(), by_signature);
  std::sort(threaded.skyline.begin(), threaded.skyline.end(), by_signature);
  for (size_t i = 0; i < serial.skyline.size(); ++i) {
    const SkylineEntry& a = serial.skyline[i];
    const SkylineEntry& b = threaded.skyline[i];
    EXPECT_EQ(a.state.Signature(), b.state.Signature());
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    ASSERT_EQ(a.eval.normalized.size(), b.eval.normalized.size());
    for (size_t j = 0; j < a.eval.normalized.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.eval.normalized[j], b.eval.normalized[j]);
      EXPECT_DOUBLE_EQ(a.eval.raw[j], b.eval.raw[j]);
    }
  }
}

/// The exact valuation as it was before the gather path: the state's
/// table copied out of D_U (TaskEvaluator's default view overload builds
/// exactly Materialize(state)) and encoded row at a time by the reference
/// encoder, then the same split, fit and measures.
class TableReferenceEvaluator : public TaskEvaluator {
 public:
  explicit TableReferenceEvaluator(const SupervisedEvaluator* inner)
      : inner_(inner) {}

  const std::vector<MeasureSpec>& measures() const override {
    return inner_->measures();
  }
  std::string ModelIdentity() const override {
    return inner_->ModelIdentity();
  }
  Result<Evaluation> Evaluate(const Table& dataset) override {
    BridgeOptions bridge;
    bridge.exclude = inner_->task().exclude;
    MODIS_ASSIGN_OR_RETURN(
        MlDataset full,
        ReferenceTableToDataset(dataset, inner_->task().target,
                                inner_->task().task, bridge));
    return inner_->EvaluateDataset(full);
  }

 private:
  const SupervisedEvaluator* inner_;
};

void ExpectSameRun(ModisResult gathered, ModisResult reference,
                   const std::string& context) {
  EXPECT_EQ(gathered.valuated_states, reference.valuated_states) << context;
  EXPECT_EQ(gathered.oracle_stats.exact_evals,
            reference.oracle_stats.exact_evals)
      << context;
  EXPECT_EQ(gathered.oracle_stats.surrogate_evals,
            reference.oracle_stats.surrogate_evals)
      << context;
  EXPECT_EQ(gathered.oracle_stats.failed_evals,
            reference.oracle_stats.failed_evals)
      << context;
  ASSERT_EQ(gathered.skyline.size(), reference.skyline.size()) << context;
  ASSERT_FALSE(gathered.skyline.empty()) << context;
  auto by_signature = [](const SkylineEntry& a, const SkylineEntry& b) {
    return a.state.Signature() < b.state.Signature();
  };
  std::sort(gathered.skyline.begin(), gathered.skyline.end(), by_signature);
  std::sort(reference.skyline.begin(), reference.skyline.end(), by_signature);
  for (size_t i = 0; i < gathered.skyline.size(); ++i) {
    const SkylineEntry& a = gathered.skyline[i];
    const SkylineEntry& b = reference.skyline[i];
    EXPECT_EQ(a.state.Signature(), b.state.Signature()) << context;
    EXPECT_EQ(a.level, b.level) << context;
    EXPECT_EQ(a.rows, b.rows) << context;
    EXPECT_EQ(a.cols, b.cols) << context;
    ASSERT_EQ(a.eval.raw.size(), b.eval.raw.size()) << context;
    ASSERT_EQ(a.eval.normalized.size(), b.eval.normalized.size()) << context;
    EXPECT_EQ(std::memcmp(a.eval.raw.data(), b.eval.raw.data(),
                          a.eval.raw.size() * sizeof(double)),
              0)
        << context << " raw measures of " << a.state.Signature();
    EXPECT_EQ(std::memcmp(a.eval.normalized.data(), b.eval.normalized.data(),
                          a.eval.normalized.size() * sizeof(double)),
              0)
        << context << " normalized measures of " << a.state.Signature();
  }
}

TEST(EngineTest, MaskPathSkylinesMatchTheTableReference) {
  // Every exact valuation gathers its rows from the encoded D_U; this pins
  // that path against the table-then-encode one it replaced, on the four
  // variants x {exact, gbm} oracles (plus the exhaustive baseline, which
  // valuates one state at a time) over T1-T3. "train_time" is dropped:
  // wall-clock measures differ between any two runs.
  using Runner = std::function<Result<ModisResult>(
      const SearchUniverse&, PerformanceOracle*, ModisConfig)>;
  const std::vector<std::pair<std::string, Runner>> variants = {
      {"apx", RunApxModis},
      {"nobi", RunNoBiModis},
      {"bi", RunBiModis},
      {"div", RunDivModis}};
  for (BenchTaskId id :
       {BenchTaskId::kMovie, BenchTaskId::kHouse, BenchTaskId::kAvocado}) {
    auto bench = MakeTabularBench(id, 0.3);
    ASSERT_TRUE(bench.ok());
    auto universe =
        SearchUniverse::Build(bench->universal, bench->universe_options);
    ASSERT_TRUE(universe.ok());
    SupervisedTask task = bench->task;
    task.measures.clear();
    for (const MeasureSpec& m : bench->task.measures) {
      if (m.name != "train_time") task.measures.push_back(m);
    }
    SupervisedEvaluator gather(task, bench->model->Clone());
    TableReferenceEvaluator reference(&gather);

    ModisConfig cfg;
    cfg.epsilon = 0.25;
    cfg.max_states = 40;
    cfg.max_level = 3;
    auto run = [&](const Runner& runner, TaskEvaluator* evaluator,
                   bool surrogate) {
      std::optional<SurrogateOptions> surrogate_options;
      if (surrogate) surrogate_options.emplace();
      PerformanceOracle oracle(evaluator, surrogate_options);
      auto result = runner(*universe, &oracle, cfg);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return std::move(result).value();
    };
    for (const auto& [name, runner] : variants) {
      for (bool surrogate : {false, true}) {
        const std::string context = std::string(BenchTaskName(id)) + "/" +
                                    name + (surrogate ? "/gbm" : "/exact");
        ExpectSameRun(run(runner, &gather, surrogate),
                      run(runner, &reference, surrogate), context);
      }
    }
    ExpectSameRun(run(RunExactSkyline, &gather, false),
                  run(RunExactSkyline, &reference, false),
                  std::string(BenchTaskName(id)) + "/exhaustive");
  }
}

class EpsilonSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweepTest, SkylineNonEmptyAndNonDominated) {
  auto f = UniverseFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg = SmallConfig();
  cfg.epsilon = GetParam();
  auto result = RunApxModis(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->skyline.empty());
  for (const auto& a : result->skyline) {
    for (const auto& b : result->skyline) {
      if (&a != &b) {
        EXPECT_FALSE(Dominates(a.eval.normalized, b.eval.normalized));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweepTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3, 0.5));

}  // namespace
}  // namespace modis
