#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "datagen/tasks.h"

namespace modis {
namespace {

struct BaselineFixture {
  TabularBench bench;
  std::unique_ptr<SupervisedEvaluator> evaluator;

  static BaselineFixture Make(BenchTaskId id = BenchTaskId::kHouse) {
    auto bench = MakeTabularBench(id, 0.4);
    EXPECT_TRUE(bench.ok());
    BaselineFixture f{std::move(bench).value(), nullptr};
    f.evaluator = f.bench.MakeEvaluator();
    return f;
  }
};

TEST(OriginalTest, EvaluatesUniversal) {
  auto f = BaselineFixture::Make();
  auto r = RunOriginal(f.bench.universal, f.evaluator.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name, "Original");
  EXPECT_EQ(r->eval.raw.size(), f.bench.task.measures.size());
}

TEST(MetamTest, OutputContainsTargetAndImproves) {
  auto f = BaselineFixture::Make();
  MetamOptions opts;
  opts.utility_measure = 0;  // f1 for the house task.
  auto r = RunMetam(f.bench.lake, f.evaluator.get(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name, "METAM");
  EXPECT_TRUE(r->dataset.schema().HasField(f.bench.task.target));
  // Greedy joins must never end worse (in utility) than the base table.
  auto base_eval = f.evaluator->Evaluate(f.bench.lake.tables[0]);
  ASSERT_TRUE(base_eval.ok());
  EXPECT_LE(r->eval.normalized[0], base_eval->normalized[0] + 1e-9);
}

TEST(MetamTest, MultiObjectiveVariantRuns) {
  auto f = BaselineFixture::Make();
  MetamOptions opts;
  opts.multi_objective = true;
  auto r = RunMetam(f.bench.lake, f.evaluator.get(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name, "METAM-MO");
}

TEST(MetamTest, MaxJoinsBoundsSchema) {
  auto f = BaselineFixture::Make();
  MetamOptions opts;
  opts.max_joins = 1;
  auto r = RunMetam(f.bench.lake, f.evaluator.get(), opts);
  ASSERT_TRUE(r.ok());
  // At most the base schema plus one joined table.
  size_t max_cols = f.bench.lake.tables[0].num_cols();
  size_t widest = 0;
  for (size_t t = 1; t < f.bench.lake.tables.size(); ++t) {
    widest = std::max(widest, f.bench.lake.tables[t].num_cols() - 1);
  }
  EXPECT_LE(r->dataset.num_cols(), max_cols + widest);
}

TEST(StarmieTest, JoinsSimilarTables) {
  auto f = BaselineFixture::Make();
  auto r = RunStarmieLite(f.bench.lake, f.evaluator.get(), 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name, "Starmie");
  // The shared key column makes every table similar -> everything joined.
  EXPECT_EQ(r->dataset.num_cols(), f.bench.universal.num_cols());
}

TEST(StarmieTest, HighThresholdKeepsBaseOnly) {
  auto f = BaselineFixture::Make();
  auto r = RunStarmieLite(f.bench.lake, f.evaluator.get(), 1.1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->dataset.num_cols(), f.bench.lake.tables[0].num_cols());
}

TEST(SkSfmTest, SelectsSubsetKeepingTarget) {
  auto f = BaselineFixture::Make();
  auto r = RunSkSfm(f.bench.universal, f.evaluator.get(),
                    f.bench.model.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name, "SkSFM");
  EXPECT_LT(r->dataset.num_cols(), f.bench.universal.num_cols());
  EXPECT_TRUE(r->dataset.schema().HasField(f.bench.task.target));
  EXPECT_EQ(r->dataset.num_rows(), f.bench.universal.num_rows());
}

TEST(SkSfmTest, FeatureSelectionSpeedsTraining) {
  auto f = BaselineFixture::Make();
  auto original = RunOriginal(f.bench.universal, f.evaluator.get());
  auto selected = RunSkSfm(f.bench.universal, f.evaluator.get(),
                           f.bench.model.get());
  ASSERT_TRUE(original.ok() && selected.ok());
  // Training work is rows x feature columns (the target excluded). It is
  // deterministic, unlike the wall-clock train_time of one run each.
  const auto work = [](const Table& table) {
    return table.num_rows() * (table.num_cols() - 1);
  };
  EXPECT_LT(work(selected->dataset), work(original->dataset));
}

TEST(H2oFsTest, LinearSelectionWorksBothTasks) {
  for (BenchTaskId id : {BenchTaskId::kHouse, BenchTaskId::kAvocado}) {
    auto f = BaselineFixture::Make(id);
    auto r = RunH2oFs(f.bench.universal, f.evaluator.get());
    ASSERT_TRUE(r.ok()) << BenchTaskName(id);
    EXPECT_LE(r->dataset.num_cols(), f.bench.universal.num_cols());
    EXPECT_TRUE(r->dataset.schema().HasField(f.bench.task.target));
  }
}

TEST(HydraGanTest, AppendsSyntheticRows) {
  auto f = BaselineFixture::Make();
  const size_t base_rows = f.bench.lake.tables[0].num_rows();
  auto r = RunHydraGanLite(f.bench.lake, f.evaluator.get(), 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name, "HydraGAN");
  EXPECT_EQ(r->dataset.num_rows(), base_rows + 100);
  EXPECT_EQ(r->dataset.num_cols(), f.bench.lake.tables[0].num_cols());
}

TEST(BaselinesTest, AllReportTiming) {
  auto f = BaselineFixture::Make();
  auto r = RunSkSfm(f.bench.universal, f.evaluator.get(), f.bench.model.get());
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->seconds, 0.0);
}

}  // namespace
}  // namespace modis
