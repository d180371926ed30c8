#include <gtest/gtest.h>

#include <filesystem>

#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "estimator/link_evaluator.h"
#include "estimator/measure.h"
#include "estimator/oracle.h"
#include "estimator/supervised_evaluator.h"
#include "ml/metrics.h"
#include "ml/multi_output_gbm.h"
#include "ml/random_forest.h"
#include "storage/persistent_record_cache.h"

namespace modis {
namespace {

// ---------------------------------------------------------------- Measure

TEST(MeasureTest, MaximizeInverts) {
  MeasureSpec m = MeasureSpec::Maximize("acc");
  EXPECT_NEAR(m.Normalize(0.9), 0.1, 1e-12);
  EXPECT_NEAR(m.Normalize(1.0), m.lower, 1e-12);  // Floored at p_l.
  EXPECT_NEAR(m.Normalize(0.0), 1.0, 1e-12);
}

TEST(MeasureTest, MinimizeScales) {
  MeasureSpec m = MeasureSpec::Minimize("train_time", 10.0);
  EXPECT_NEAR(m.Normalize(5.0), 0.5, 1e-12);
  EXPECT_NEAR(m.Normalize(100.0), 1.0, 1e-12);  // Clamped at 1.
  EXPECT_GE(m.Normalize(0.0), m.lower);          // Stays in (0, 1].
}

TEST(MeasureTest, BoundsVectors) {
  std::vector<MeasureSpec> specs{MeasureSpec::Maximize("a", 0.01, 0.5),
                                 MeasureSpec::Minimize("b", 2.0, 0.02, 0.8)};
  EXPECT_EQ(LowerBounds(specs), (std::vector<double>{0.01, 0.02}));
  EXPECT_EQ(UpperBounds(specs), (std::vector<double>{0.5, 0.8}));
}

// ------------------------------------------------------ SupervisedEvaluator

TabularBench SmallHouse() {
  auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4);
  EXPECT_TRUE(bench.ok());
  return std::move(bench).value();
}

TEST(SupervisedEvaluatorTest, EvaluatesUniversalTable) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  auto eval = evaluator->Evaluate(bench.universal);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  ASSERT_EQ(eval->raw.size(), bench.task.measures.size());
  ASSERT_EQ(eval->normalized.size(), bench.task.measures.size());
  // F1 and accuracy should be decent on the planted-signal lake.
  EXPECT_GT(eval->raw[0], 0.5);  // f1
  EXPECT_GT(eval->raw[1], 0.5);  // acc
  for (double v : eval->normalized) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SupervisedEvaluatorTest, DeterministicAcrossCalls) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  auto a = evaluator->Evaluate(bench.universal);
  auto b = evaluator->Evaluate(bench.universal);
  ASSERT_TRUE(a.ok() && b.ok());
  // Wall-clock (train_time) differs run to run; all other measures must be
  // bit-identical.
  for (size_t i = 0; i < a->raw.size(); ++i) {
    if (bench.task.measures[i].name == "train_time") continue;
    EXPECT_DOUBLE_EQ(a->raw[i], b->raw[i]) << bench.task.measures[i].name;
  }
}

// ---------------------------------------------------------- Accuracy guard
//
// Histogram split finding changed every tree learner's numerics. These pin
// the held-out metrics of the tree-trained tasks, on the full D_U split at
// row scale 1.0, as the sort-based split search scored them; the binned
// trees may lose at most 0.02 on any of them.

constexpr double kAccuracySlack = 0.02;

struct PinnedMetric {
  BenchTaskId task;
  const char* measure;
  double sort_based;
};

TEST(AccuracyGuardTest, TreeTasksStayWithinSlackOfSortBasedSplits) {
  const PinnedMetric pinned[] = {
      {BenchTaskId::kMovie, "acc", 0.435713},        // T1: GBM regressor.
      {BenchTaskId::kHouse, "acc", 0.677054},        // T2: random forest.
      {BenchTaskId::kHouse, "f1", 0.674758},
      {BenchTaskId::kMental, "acc", 0.832778},       // T4: LightGBM-lite.
      {BenchTaskId::kMental, "auc", 0.916619},
      {BenchTaskId::kXray, "acc", 0.811111},         // case1: random forest.
      {BenchTaskId::kFeaturePool, "acc", 0.821333},  // case2: random forest.
  };
  for (const PinnedMetric& p : pinned) {
    auto bench = MakeTabularBench(p.task, 1.0);
    ASSERT_TRUE(bench.ok());
    auto eval = bench->MakeEvaluator()->Evaluate(bench->universal);
    ASSERT_TRUE(eval.ok()) << eval.status().ToString();
    const auto& measures = bench->task.measures;
    size_t i = 0;
    while (i < measures.size() && measures[i].name != p.measure) ++i;
    ASSERT_LT(i, measures.size()) << p.measure;
    EXPECT_GE(eval->raw[i], p.sort_based - kAccuracySlack)
        << BenchTaskName(p.task) << " " << p.measure;
  }
}

TEST(AccuracyGuardTest, SurrogateStaysWithinSlackOfSortBasedSplits) {
  // The MO-GBM surrogate's held-out R2 per measure, on 240 recorded
  // (features, normalized) rows of an exact T3 search. T3 trains ridge,
  // so the records themselves do not depend on the tree learner.
  auto bench = MakeTabularBench(BenchTaskId::kAvocado, 1.0);
  ASSERT_TRUE(bench.ok());
  auto universe =
      SearchUniverse::Build(bench->universal, bench->universe_options);
  ASSERT_TRUE(universe.ok());
  SupervisedTask task = bench->task;
  task.measures.clear();
  for (const MeasureSpec& m : bench->task.measures) {
    if (m.name != "train_time") task.measures.push_back(m);
  }
  SupervisedEvaluator evaluator(task, bench->model->Clone());
  PerformanceOracle oracle(&evaluator);
  ModisConfig cfg;
  cfg.epsilon = 0.1;
  cfg.max_states = 240;
  cfg.max_level = 6;
  ASSERT_TRUE(RunBiModis(*universe, &oracle, cfg).ok());
  const auto& records = oracle.store().records();
  ASSERT_EQ(records.size(), 240u);

  // Every fourth record is held out.
  const size_t d = records[0].features.size();
  const size_t k = records[0].eval.normalized.size();
  const size_t held_out = records.size() / 4;
  Matrix x_train(records.size() - held_out, d), y_train(x_train.rows(), k);
  Matrix x_test(held_out, d);
  std::vector<std::vector<double>> y_test(k);
  size_t a = 0, b = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const TestRecordStore::Record& r = records[i];
    if (i % 4 == 3) {
      for (size_t j = 0; j < d; ++j) x_test.At(b, j) = r.features[j];
      for (size_t j = 0; j < k; ++j) y_test[j].push_back(r.eval.normalized[j]);
      ++b;
    } else {
      for (size_t j = 0; j < d; ++j) x_train.At(a, j) = r.features[j];
      for (size_t j = 0; j < k; ++j) y_train.At(a, j) = r.eval.normalized[j];
      ++a;
    }
  }
  const SurrogateOptions surrogate;
  MultiOutputGbm model(surrogate.gbm);
  Rng rng(surrogate.seed);
  ASSERT_TRUE(model.Fit(x_train, y_train, &rng).ok());
  const Matrix pred = model.Predict(x_test);
  const double sort_based_r2[] = {0.916021, 0.888212};  // mse, mae
  ASSERT_EQ(k, 2u);
  for (size_t j = 0; j < k; ++j) {
    std::vector<double> p(held_out);
    for (size_t i = 0; i < held_out; ++i) p[i] = pred.At(i, j);
    EXPECT_GE(R2Score(y_test[j], p), sort_based_r2[j] - kAccuracySlack)
        << task.measures[j].name;
  }
}

TEST(SupervisedEvaluatorTest, FailsOnTinyDataset) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  Table tiny = bench.universal.SelectRows({0, 1, 2});
  EXPECT_FALSE(evaluator->Evaluate(tiny).ok());
}

TEST(SupervisedEvaluatorTest, FailsWithoutFeatures) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  auto only_target = bench.universal.SelectColumnsByName(
      {bench.task.target, bench.lake.key()});
  ASSERT_TRUE(only_target.ok());
  EXPECT_FALSE(evaluator->Evaluate(only_target.value()).ok());
}

TEST(SupervisedEvaluatorTest, UnknownMeasureRejected) {
  TabularBench bench = SmallHouse();
  SupervisedTask task = bench.task;
  task.measures = {MeasureSpec::Maximize("bogus")};
  SupervisedEvaluator evaluator(task, bench.model->Clone());
  EXPECT_FALSE(evaluator.Evaluate(bench.universal).ok());
}

// ---------------------------------------------------------------- Oracles

/// A single-test request for `state` over `universe`.
ValuationRequest StateRequest(const SearchUniverse& universe,
                              const StateBitmap& state) {
  ValuationRequest req;
  req.key = state.Signature();
  req.features = universe.StateFeatures(state);
  req.universe = &universe;
  req.materialize = [&universe, state]() {
    return universe.MaterializeRecord(state);
  };
  return req;
}

TEST(ExactModeOracleTest, CachesBySignature) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  auto uni = SearchUniverse::Build(bench.universal, bench.universe_options);
  ASSERT_TRUE(uni.ok());
  int materializations = 0;
  ValuationRequest req = StateRequest(*uni, uni->FullBitmap());
  req.materialize = [&]() {
    ++materializations;
    return uni->MaterializeRecord(uni->FullBitmap());
  };
  auto a = oracle.Valuate(req);
  auto b = oracle.Valuate(req);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(materializations, 1);
  EXPECT_EQ(oracle.stats().exact_evals, 1u);
  EXPECT_EQ(oracle.stats().cache_hits, 1u);
  EXPECT_EQ(a->normalized, b->normalized);
  EXPECT_EQ(oracle.store().size(), 1u);
}

TEST(ExactModeOracleTest, FailedEvalNotCached) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  auto uni = SearchUniverse::Build(bench.universal, bench.universe_options);
  ASSERT_TRUE(uni.ok());
  // A one-row dataset: too small to train on.
  ValuationRequest req = StateRequest(*uni, uni->FullBitmap());
  req.materialize = [&]() {
    auto m = std::make_shared<Materialization>();
    m->state = uni->FullBitmap();
    m->mask = RowMask(bench.universal.num_rows(), false);
    m->mask.Set(0, true);
    return MaterializationPtr(m);
  };
  auto r = oracle.Valuate(req);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(oracle.stats().failed_evals, 1u);
  EXPECT_EQ(oracle.store().size(), 0u);
}

// ------------------------------------------------------------ Batch API

/// Deterministic stub: evaluates to a pure function of the row count and
/// fails on empty tables, so batch-policy tests control exactly which
/// trainings succeed.
class StubEvaluator : public TaskEvaluator {
 public:
  StubEvaluator()
      : measures_{MeasureSpec::Minimize("m0", 1.0),
                  MeasureSpec::Minimize("m1", 1.0)} {}

  const std::vector<MeasureSpec>& measures() const override {
    return measures_;
  }
  Result<Evaluation> Evaluate(const Table& dataset) override {
    if (dataset.num_rows() == 0) {
      return Status::FailedPrecondition("stub: empty dataset");
    }
    const double v = 1.0 / (1.0 + static_cast<double>(dataset.num_rows()));
    Evaluation e;
    e.raw = {v, v / 2.0};
    e.normalized = {v, v / 2.0};
    return e;
  }

 private:
  std::vector<MeasureSpec> measures_;
};

Table StubTable(size_t rows) {
  Schema schema;
  MODIS_CHECK_OK(schema.AddField({"x", ColumnType::kNumeric}));
  Table t(schema);
  for (size_t r = 0; r < rows; ++r) {
    MODIS_CHECK_OK(t.AppendRow({Value(static_cast<double>(r))}));
  }
  return t;
}

/// The universe every stub request selects from: StubTable(kStubRows).
constexpr size_t kStubRows = 64;
const SearchUniverse& StubUniverse() {
  static const SearchUniverse* universe = [] {
    auto built = SearchUniverse::Build(StubTable(kStubRows), {});
    MODIS_CHECK_OK(built.status());
    return new SearchUniverse(std::move(built).value());
  }();
  return *universe;
}

/// A request whose dataset is the first `rows` rows of the stub universe.
ValuationRequest StubRequest(const std::string& key, size_t rows,
                             double feature) {
  MODIS_CHECK(rows <= kStubRows) << "stub request too large";
  const SearchUniverse& universe = StubUniverse();
  ValuationRequest req;
  req.key = key;
  req.features = {feature, 1.0};
  req.universe = &universe;
  req.materialize = [&universe, rows]() {
    auto m = std::make_shared<Materialization>();
    m->state = universe.FullBitmap();
    m->mask = RowMask(kStubRows, false);
    for (size_t r = 0; r < rows; ++r) m->mask.Set(r, true);
    return MaterializationPtr(m);
  };
  return req;
}

TEST(ExactModeOracleBatchTest, PlansCacheHitsAndCommitsInOrder) {
  StubEvaluator evaluator;
  PerformanceOracle oracle(&evaluator);
  // Pre-valuate "a" so the batch sees it as cached.
  auto warm = oracle.Valuate(StubRequest("a", 4, 0.0));
  ASSERT_TRUE(warm.ok());

  std::vector<ValuationRequest> requests;
  requests.push_back(StubRequest("a", 4, 0.0));
  requests.push_back(StubRequest("b", 9, 1.0));
  requests.push_back(StubRequest("c", 0, 2.0));  // Fails to train.
  BatchPlan plan = oracle.PrepareBatch(std::move(requests));
  ASSERT_EQ(plan.modes.size(), 3u);
  EXPECT_EQ(plan.modes[0], BatchPlan::Mode::kCached);
  EXPECT_EQ(plan.modes[1], BatchPlan::Mode::kExact);
  EXPECT_EQ(plan.modes[2], BatchPlan::Mode::kExact);
  EXPECT_EQ(plan.exact_count, 2u);

  auto results = oracle.ValuateBatch(std::move(plan));
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0]->normalized, warm->normalized);
  ASSERT_TRUE(results[1].ok());
  EXPECT_NEAR(results[1]->normalized[0], 0.1, 1e-12);
  EXPECT_FALSE(results[2].ok());  // Failed training surfaces per item.
  EXPECT_EQ(oracle.stats().cache_hits, 1u);
  EXPECT_EQ(oracle.stats().exact_evals, 2u);  // warm + "b".
  EXPECT_EQ(oracle.stats().failed_evals, 1u);
  EXPECT_EQ(oracle.store().size(), 2u);
}

/// What a batch borrows lives in its plan, never in the oracle: one oracle
/// valuates a batch in a context that names a record cache, then a batch
/// in an empty context, and the second neither replays from nor writes
/// into the first one's cache.
TEST(ExactModeOracleBatchTest, ContextLivesInThePlanNotTheOracle) {
  constexpr uint64_t kFingerprint = 0xF00D;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "context_plan.rlog")
          .string();
  std::filesystem::remove(path);
  auto cache = PersistentRecordCache::Open(path, CacheMode::kReadWrite,
                                           kFingerprint);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  StubEvaluator evaluator;
  const ValuationRequest a = StubRequest("a", 4, 0.0);
  auto recorded = PerformanceOracle(&evaluator).Valuate(a);
  ASSERT_TRUE(recorded.ok());
  (*cache)->Insert(kFingerprint, a.key, a.features, recorded.value());

  PerformanceOracle oracle(&evaluator);
  ValuationContext context;
  context.record_cache = cache->get();
  context.write_through = true;
  context.fingerprint = kFingerprint;
  BatchPlan replay = oracle.PrepareBatch({a}, context);
  ASSERT_EQ(replay.modes[0], BatchPlan::Mode::kPersistent);
  auto replayed = oracle.ValuateBatch(std::move(replay));
  ASSERT_TRUE(replayed[0].ok());
  EXPECT_EQ(replayed[0]->normalized, recorded->normalized);
  EXPECT_EQ(oracle.stats().persistent_hits, 1u);
  EXPECT_EQ(oracle.stats().exact_evals, 0u);

  BatchPlan fresh = oracle.PrepareBatch({StubRequest("b", 9, 1.0)});
  EXPECT_EQ(fresh.context.record_cache, nullptr);
  ASSERT_EQ(fresh.modes[0], BatchPlan::Mode::kExact);
  auto trained = oracle.ValuateBatch(std::move(fresh));
  ASSERT_TRUE(trained[0].ok());
  EXPECT_EQ(oracle.stats().persistent_hits, 1u);
  EXPECT_EQ(oracle.stats().exact_evals, 1u);
  EXPECT_FALSE((*cache)->Touch(kFingerprint, "b"));
}

TEST(SurrogateOracleBatchTest, BootstrapShortfallFallsBackToExact) {
  // The plan projects the bootstrap to finish within the batch, but one
  // exact training fails, leaving the surrogate untrained when the
  // batch's surrogate predictions come due. Those requests must fall
  // back to exact valuation (the serial path's guarantee) instead of
  // being dropped as failures.
  StubEvaluator evaluator;
  SurrogateOptions opts;
  opts.bootstrap_budget = 4;
  opts.exact_fraction = 0.0;  // Everything after bootstrap plans surrogate.
  PerformanceOracle oracle(&evaluator, opts);

  std::vector<ValuationRequest> requests;
  for (size_t i = 0; i < 8; ++i) {
    // Request #2 materializes an empty table, so its training fails.
    requests.push_back(StubRequest("k" + std::to_string(i),
                                   i == 2 ? 0 : 5 + i,
                                   static_cast<double>(i)));
  }
  BatchPlan plan = oracle.PrepareBatch(std::move(requests));
  size_t exact_planned = 0;
  for (auto m : plan.modes) {
    if (m == BatchPlan::Mode::kExact) ++exact_planned;
  }
  EXPECT_EQ(exact_planned, 4u);  // The projected bootstrap.

  auto results = oracle.ValuateBatch(std::move(plan));
  ASSERT_EQ(results.size(), 8u);
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].ok()) << i;
    } else {
      EXPECT_TRUE(results[i].ok()) << i << ": "
                                   << results[i].status().ToString();
    }
  }
  // 3 bootstrap successes + at least the first fallback ran exactly; the
  // retrain after the fallback may hand the remaining requests to the
  // surrogate, but none may be dropped.
  EXPECT_GE(oracle.stats().exact_evals, 4u);
  EXPECT_EQ(oracle.stats().failed_evals, 1u);
  EXPECT_EQ(oracle.stats().exact_evals + oracle.stats().surrogate_evals,
            7u);
}

/// Every Stats counter (seconds excluded, they are wall clock).
std::vector<size_t> Counters(const PerformanceOracle::Stats& st) {
  return {st.exact_evals,     st.surrogate_evals, st.cache_hits,
          st.persistent_hits, st.fused_hits,      st.failed_evals};
}

TEST(PerformanceOracleTest, ValuateIsAOneRequestBatch) {
  // Twin surrogate oracles take the same request stream — bootstrap,
  // Bernoulli-mixed exact/surrogate valuations, one failed training and
  // one repeat — one through Valuate, the other through one-request
  // PrepareBatch/ValuateBatch pairs. Results and counters must agree.
  StubEvaluator evaluator;
  SurrogateOptions opts;
  opts.bootstrap_budget = 4;
  opts.exact_fraction = 0.3;
  PerformanceOracle single(&evaluator, opts);
  PerformanceOracle batched(&evaluator, opts);

  std::vector<ValuationRequest> stream;
  for (size_t i = 0; i < 30; ++i) {
    // #2 (still bootstrapping, so exact) materializes an empty table and
    // its training fails.
    stream.push_back(StubRequest("k" + std::to_string(i), i == 2 ? 0 : 1 + i,
                                 static_cast<double>(i)));
  }
  stream.push_back(StubRequest("k3", 4, 3.0));  // A repeat: a cache hit.

  for (const ValuationRequest& req : stream) {
    Result<Evaluation> a = single.Valuate(req);
    std::vector<Result<Evaluation>> b =
        batched.ValuateBatch(batched.PrepareBatch({req}));
    ASSERT_EQ(b.size(), 1u);
    ASSERT_EQ(a.ok(), b[0].ok()) << req.key;
    if (a.ok()) {
      EXPECT_EQ(a->normalized, b[0]->normalized) << req.key;
      EXPECT_EQ(a->raw, b[0]->raw) << req.key;
    } else {
      EXPECT_EQ(a.status().code(), b[0].status().code()) << req.key;
    }
  }
  EXPECT_EQ(Counters(single.stats()), Counters(batched.stats()));
  EXPECT_EQ(single.stats().failed_evals, 1u);
  EXPECT_EQ(single.stats().cache_hits, 1u);
  EXPECT_GT(single.stats().surrogate_evals, 0u);
  EXPECT_EQ(single.SurrogateMse(), batched.SurrogateMse());
  EXPECT_EQ(single.store().size(), batched.store().size());
}

TEST(PerformanceOracleTest, ExactModeNeverTouchesTheSurrogate) {
  // More distinct requests than the default bootstrap budget (24): with
  // the surrogate off, nothing may project a bootstrap or fit it.
  constexpr size_t kRequests = 40;
  ASSERT_GT(kRequests, SurrogateOptions{}.bootstrap_budget);
  std::vector<ValuationRequest> stream;
  for (size_t i = 0; i < kRequests; ++i) {
    stream.push_back(StubRequest("k" + std::to_string(i), 1 + i % 60,
                                 static_cast<double>(i)));
  }
  StubEvaluator evaluator;

  // One request at a time: a refit after the 24th record would make the
  // next commits shadow-predict.
  PerformanceOracle single(&evaluator);
  for (const ValuationRequest& req : stream) {
    ASSERT_TRUE(single.Valuate(req).ok()) << req.key;
  }
  // One batch: a projected bootstrap would plan surrogate predictions.
  PerformanceOracle batched(&evaluator);
  BatchPlan plan = batched.PrepareBatch(stream);
  EXPECT_EQ(plan.exact_count, kRequests);
  for (BatchPlan::Mode mode : plan.modes) {
    EXPECT_EQ(mode, BatchPlan::Mode::kExact);
  }
  for (const auto& r : batched.ValuateBatch(std::move(plan))) {
    ASSERT_TRUE(r.ok());
  }
  // A second pass over the same states is all cache hits.
  for (const ValuationRequest& req : stream) {
    ASSERT_TRUE(batched.Valuate(req).ok()) << req.key;
  }

  for (const PerformanceOracle* oracle : {&single, &batched}) {
    EXPECT_EQ(oracle->stats().exact_evals, kRequests);
    EXPECT_EQ(oracle->stats().surrogate_evals, 0u);
    EXPECT_EQ(oracle->SurrogateMse(), 0.0);
    EXPECT_EQ(oracle->store().size(), kRequests);
  }
  EXPECT_EQ(batched.stats().cache_hits, kRequests);
}

/// An evaluator with no measures: every training succeeds, but the
/// surrogate has nothing to fit, so every refit fails.
class NoMeasureEvaluator : public TaskEvaluator {
 public:
  const std::vector<MeasureSpec>& measures() const override {
    return measures_;
  }
  Result<Evaluation> Evaluate(const Table&) override { return Evaluation{}; }

 private:
  std::vector<MeasureSpec> measures_;
};

TEST(SurrogateOracleTest, FailedRefitFallsBackToExact) {
  // A refit that fails is neither a failed valuation nor a silent
  // surrogate: every request past the bootstrap still trains exactly.
  NoMeasureEvaluator evaluator;
  SurrogateOptions opts;
  opts.bootstrap_budget = 4;
  opts.exact_fraction = 0.0;
  PerformanceOracle single(&evaluator, opts);
  PerformanceOracle batched(&evaluator, opts);
  std::vector<ValuationRequest> stream;
  for (size_t i = 0; i < 10; ++i) {
    stream.push_back(StubRequest("k" + std::to_string(i), 1 + i,
                                 static_cast<double>(i)));
    EXPECT_TRUE(single.Valuate(stream.back()).ok()) << i;
  }
  for (const auto& r : batched.ValuateBatch(batched.PrepareBatch(stream))) {
    EXPECT_TRUE(r.ok());
  }
  for (const PerformanceOracle* oracle : {&single, &batched}) {
    EXPECT_EQ(oracle->stats().exact_evals, 10u);
    EXPECT_EQ(oracle->stats().surrogate_evals, 0u);
    EXPECT_EQ(oracle->stats().failed_evals, 0u);
  }
}

TEST(SurrogateOracleTest, BootstrapsExactThenPredicts) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  SurrogateOptions opts;
  opts.bootstrap_budget = 6;
  opts.exact_fraction = 0.0;
  PerformanceOracle oracle(evaluator.get(), opts);

  auto uni = SearchUniverse::Build(bench.universal, bench.universe_options);
  ASSERT_TRUE(uni.ok());

  // Valuate a series of distinct single-flip states.
  StateBitmap full = uni->FullBitmap();
  size_t flips = 0;
  for (size_t u = 0; u < uni->layout().num_units() && flips < 12; ++u) {
    if (uni->layout().IsAttributeUnit(u) && !uni->layout().attr_flippable[u]) {
      continue;
    }
    StateBitmap s = full.WithFlipped(u);
    auto r = oracle.Valuate(StateRequest(*uni, s));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ++flips;
  }
  EXPECT_GE(oracle.stats().exact_evals, 6u);
  EXPECT_GT(oracle.stats().surrogate_evals, 0u);
  // Surrogate predictions stay in normalized range.
  EXPECT_EQ(oracle.stats().exact_evals + oracle.stats().surrogate_evals,
            flips);
}

TEST(SurrogateOracleTest, SurrogateIsFastAfterBootstrap) {
  TabularBench bench = SmallHouse();
  auto evaluator = bench.MakeEvaluator();
  SurrogateOptions opts;
  opts.bootstrap_budget = 4;
  opts.exact_fraction = 0.0;
  PerformanceOracle oracle(evaluator.get(), opts);
  auto uni = SearchUniverse::Build(bench.universal, bench.universe_options);
  ASSERT_TRUE(uni.ok());
  StateBitmap full = uni->FullBitmap();
  int done = 0;
  for (size_t u = 0; u < uni->layout().num_units() && done < 20; ++u) {
    if (uni->layout().IsAttributeUnit(u) && !uni->layout().attr_flippable[u]) {
      continue;
    }
    StateBitmap s = full.WithFlipped(u);
    ASSERT_TRUE(oracle.Valuate(StateRequest(*uni, s)).ok());
    ++done;
  }
  const auto& st = oracle.stats();
  ASSERT_GT(st.surrogate_evals, 0u);
  // Per-call surrogate cost must be far below per-call exact cost.
  EXPECT_LT(st.surrogate_seconds / st.surrogate_evals,
            st.exact_seconds / st.exact_evals);
}

// ------------------------------------------------------------- LinkEvaluator

TEST(LinkEvaluatorTest, EvaluatesEdgeTable) {
  auto bench = MakeGraphBench(0.5);
  ASSERT_TRUE(bench.ok());
  auto evaluator = bench->MakeEvaluator();
  auto eval = evaluator->Evaluate(bench->lake.edge_table);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  EXPECT_EQ(eval->raw.size(), bench->task.measures.size());
  for (double v : eval->raw) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(LinkEvaluatorTest, FailsOnTooFewEdges) {
  auto bench = MakeGraphBench(0.5);
  ASSERT_TRUE(bench.ok());
  auto evaluator = bench->MakeEvaluator();
  Table tiny = bench->lake.edge_table.SelectRows({0, 1, 2});
  EXPECT_FALSE(evaluator->Evaluate(tiny).ok());
}

}  // namespace
}  // namespace modis
