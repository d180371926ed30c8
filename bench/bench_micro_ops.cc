/// Supporting micro-benchmarks (google-benchmark): throughput of the
/// primitive operators and multi-objective utilities the search is built
/// from — hash joins, Reduct, state materialization (full-scan and
/// incremental), gathering a state's dataset from the encoded D_U against
/// copying and encoding its table, Pareto fronts (naive vs Kung), ε-grid
/// updates, ParallelFor dispatch, record-cache get (warm hit) and insert +
/// flush, 1-D k-means,
/// and model training per family: one fit of each tree task's model on its
/// encoded train split, and the MO-GBM surrogate's fit and per-row predict
/// on 120 recorded tests.
///
/// `--json` is translated to google-benchmark's
/// `--benchmark_format=json`, so this binary shares the repo-wide
/// machine-readable output flag.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/kmeans.h"
#include "common/thread_pool.h"
#include "core/algorithms.h"
#include "core/universe.h"
#include "datagen/tasks.h"
#include "estimator/oracle.h"
#include "estimator/supervised_evaluator.h"
#include "ml/dataset.h"
#include "ml/multi_output_gbm.h"
#include "moo/pareto.h"
#include "ops/operators.h"
#include "storage/persistent_record_cache.h"

namespace modis {
namespace {

Table MakeWideTable(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  MODIS_CHECK_OK(schema.AddField({"id", ColumnType::kNumeric}));
  for (size_t c = 1; c < cols; ++c) {
    MODIS_CHECK_OK(
        schema.AddField({"c" + std::to_string(c), ColumnType::kNumeric}));
  }
  Table t(schema);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(cols);
    row[0] = Value(static_cast<int64_t>(r));
    for (size_t c = 1; c < cols; ++c) row[c] = Value(rng.Normal());
    MODIS_CHECK_OK(t.AppendRow(std::move(row)));
  }
  return t;
}

void BM_HashJoinInner(benchmark::State& state) {
  const size_t n = state.range(0);
  Table left = MakeWideTable(n, 4, 1);
  Table right = MakeWideTable(n, 2, 2);
  // Rename right column to avoid collision.
  Table right2(Schema({{"id", ColumnType::kNumeric},
                       {"r1", ColumnType::kNumeric}}));
  for (size_t r = 0; r < right.num_rows(); ++r) {
    MODIS_CHECK_OK(right2.AppendRow({right.At(r, 0), right.At(r, 1)}));
  }
  for (auto _ : state) {
    auto j = HashJoin(left, right2, "id", JoinType::kInner);
    benchmark::DoNotOptimize(j);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashJoinInner)->Arg(1000)->Arg(10000);

void BM_Reduct(benchmark::State& state) {
  Table t = MakeWideTable(state.range(0), 6, 3);
  Literal l = Literal::Range("c1", 0.0, 10.0);
  for (auto _ : state) {
    auto r = Reduct(t, l);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Reduct)->Arg(1000)->Arg(10000);

void BM_Materialize(benchmark::State& state) {
  auto bench = MakeTabularBench(BenchTaskId::kMovie, 0.5);
  MODIS_CHECK(bench.ok());
  auto uni = SearchUniverse::Build(bench->universal, bench->universe_options);
  MODIS_CHECK(uni.ok());
  StateBitmap s = uni->FullBitmap();
  // Flip a handful of bits to exercise the row filter.
  const size_t base = uni->layout().num_attributes();
  for (size_t i = 0; i < 4 && base + i < s.size(); ++i) {
    s = s.WithFlipped(base + i);
  }
  for (auto _ : state) {
    Table t = uni->Materialize(s);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_Materialize);

void BM_MaterializeFromClusterFlip(benchmark::State& state) {
  // Incremental materialization along a one-flip cluster edge — the hot
  // child-from-parent path of the batched valuation pipeline. It records
  // the child's row mask only; compare BM_Materialize, which also copies
  // the state's table out of D_U.
  auto bench = MakeTabularBench(BenchTaskId::kMovie, 0.5);
  MODIS_CHECK(bench.ok());
  auto uni = SearchUniverse::Build(bench->universal, bench->universe_options);
  MODIS_CHECK(uni.ok());
  StateBitmap parent_state = uni->FullBitmap();
  const size_t base = uni->layout().num_attributes();
  MODIS_CHECK(base + 4 <= parent_state.size())
      << "bench task derived too few cluster units";
  for (size_t i = 0; i < 3; ++i) {
    parent_state = parent_state.WithFlipped(base + i);
  }
  const MaterializationPtr parent = uni->MaterializeRecord(parent_state);
  const StateBitmap child = parent_state.WithFlipped(base + 3);
  for (auto _ : state) {
    MaterializationPtr m = uni->MaterializeFrom(*parent, child);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MaterializeFromClusterFlip);

void BM_GatherDataset(benchmark::State& state) {
  // One exact valuation's dataset on the serving benchmark's seed-1 T3
  // state (row scale 0.4, three seed-drawn cluster units off), two ways:
  // arg 0 gathers it from the universe's encoded D_U (GatherDataset, the
  // path every exact valuation takes), arg 1 copies the table out of D_U
  // and encodes that (Materialize + TableToDataset).
  static const auto* input = [] {
    auto bench = MakeTabularBench(BenchTaskId::kAvocado, 0.4);
    MODIS_CHECK(bench.ok());
    auto uni =
        SearchUniverse::Build(bench->universal, bench->universe_options);
    MODIS_CHECK(uni.ok());
    return new std::pair<TabularBench, SearchUniverse>(
        std::move(bench).value(), std::move(uni).value());
  }();
  const TabularBench& bench = input->first;
  const SearchUniverse& uni = input->second;
  StateBitmap s = uni.FullBitmap();
  const size_t base = uni.layout().num_attributes();
  Rng rng(1 * 31u + 17u);
  const std::vector<size_t> off = rng.SampleWithoutReplacement(
      uni.layout().num_units() - base,
      std::min<size_t>(4, uni.layout().num_units() - base));
  for (size_t i = 0; i + 1 < off.size(); ++i) s.Set(base + off[i], false);

  BridgeOptions bridge;
  bridge.exclude = bench.task.exclude;
  const MaterializationPtr m = uni.MaterializeRecord(s);
  const DatasetView view = uni.View(*m);
  const bool gather = state.range(0) == 0;
  for (auto _ : state) {
    auto ds = gather ? GatherDataset(*view.encoded, *view.rows, view.columns,
                                     bench.task.target, bench.task.task, bridge)
                     : TableToDataset(uni.Materialize(s), bench.task.target,
                                      bench.task.task, bridge);
    MODIS_CHECK(ds.ok());
    benchmark::DoNotOptimize(ds);
  }
  state.SetItemsProcessed(state.iterations() * m->mask.Count());
  state.SetLabel(gather ? "gather" : "materialize+encode");
}
BENCHMARK(BM_GatherDataset)->Arg(0)->Arg(1);

void BM_CountRowsMaskVsScan(benchmark::State& state) {
  // Surviving-row counting three ways: the seed's per-row scan over
  // cluster_of_, a fresh bitset-mask build + popcount, and the popcount
  // of an already-cached materialization's mask (the engine's UPareto
  // fast path). arg 0/1/2 = scan / mask / cached.
  auto bench = MakeTabularBench(BenchTaskId::kMovie, 0.5);
  MODIS_CHECK(bench.ok());
  auto uni = SearchUniverse::Build(bench->universal, bench->universe_options);
  MODIS_CHECK(uni.ok());
  StateBitmap s = uni->FullBitmap();
  const size_t base = uni->layout().num_attributes();
  for (size_t i = 0; i < 4 && base + i < s.size(); ++i) {
    s = s.WithFlipped(base + i);
  }
  const int mode = state.range(0);
  const MaterializationPtr cached = uni->MaterializeRecord(s);
  for (auto _ : state) {
    size_t rows = 0;
    switch (mode) {
      case 0:
        rows = uni->CountRowsScan(s);
        break;
      case 1:
        rows = uni->CountRows(s);
        break;
      default:
        rows = cached->mask.Count();
        break;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * uni->universal().num_rows());
  state.SetLabel(mode == 0 ? "scan" : mode == 1 ? "mask" : "cached");
}
BENCHMARK(BM_CountRowsMaskVsScan)->Arg(0)->Arg(1)->Arg(2);

void BM_MaskTightenFlip(benchmark::State& state) {
  // DeriveMask along a one-flip tighten (cluster bit 1 -> 0) edge: one
  // ANDNOT over the packed words, no row rescan — what
  // BM_MaterializeFromClusterFlip records, without the allocation.
  auto bench = MakeTabularBench(BenchTaskId::kMovie, 0.5);
  MODIS_CHECK(bench.ok());
  auto uni = SearchUniverse::Build(bench->universal, bench->universe_options);
  MODIS_CHECK(uni.ok());
  StateBitmap parent_state = uni->FullBitmap();
  const size_t base = uni->layout().num_attributes();
  MODIS_CHECK(base + 4 <= parent_state.size())
      << "bench task derived too few cluster units";
  for (size_t i = 0; i < 3; ++i) {
    parent_state = parent_state.WithFlipped(base + i);
  }
  const MaterializationPtr parent = uni->MaterializeRecord(parent_state);
  const StateBitmap child = parent_state.WithFlipped(base + 3);
  for (auto _ : state) {
    RowMask mask = uni->DeriveMask(*parent, child);
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * uni->universal().num_rows());
}
BENCHMARK(BM_MaskTightenFlip);

void BM_ParallelForDispatch(benchmark::State& state) {
  // Scheduling overhead of ParallelFor over trivial work, per index.
  const size_t workers = state.range(0);
  ThreadPool pool(workers);
  std::vector<double> out(256, 0.0);
  for (auto _ : state) {
    Status s = ParallelFor(&pool, 0, out.size(),
                           [&](size_t i) { out[i] = static_cast<double>(i); });
    MODIS_CHECK(s.ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4);

void BM_ParetoFront(benchmark::State& state) {
  Rng rng(4);
  std::vector<PerfVector> pts;
  for (int i = 0; i < state.range(0); ++i) {
    pts.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform()});
  }
  const bool kung = state.range(1) == 1;
  for (auto _ : state) {
    auto f = kung ? ParetoFrontKung(pts) : ParetoFrontNaive(pts);
    benchmark::DoNotOptimize(f);
  }
  state.SetLabel(kung ? "kung" : "naive");
}
BENCHMARK(BM_ParetoFront)
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({2000, 0})
    ->Args({2000, 1});

void BM_GridPosition(benchmark::State& state) {
  Rng rng(5);
  PerfVector p{rng.Uniform(0.01, 1), rng.Uniform(0.01, 1),
               rng.Uniform(0.01, 1), rng.Uniform(0.01, 1)};
  std::vector<double> lb(4, 0.01);
  for (auto _ : state) {
    auto pos = GridPosition(p, lb, 0.1);
    benchmark::DoNotOptimize(pos);
  }
}
BENCHMARK(BM_GridPosition);

StoredRecord MakeRecord(uint64_t fingerprint, size_t i) {
  StoredRecord r;
  r.fingerprint = fingerprint;
  r.key = "state-" + std::to_string(i);
  r.features = {double(i), double(i) * 0.5, double(i % 7)};
  r.eval.raw = {0.5, double(i % 100) / 100.0};
  r.eval.normalized = {0.5, double(i % 100) / 100.0};
  return r;
}

std::string ScratchPath(const char* name) {
  return std::string("bench_") + name + ".rlog.tmp";
}

void BM_RecordCacheGet(benchmark::State& state) {
  // A warm hit: the copy-out lookup every replayed valuation pays, over
  // an opened 4096-record log (the index lives in memory).
  const size_t records = 4096;
  const std::string path = ScratchPath("get");
  std::remove(path.c_str());
  {
    auto build = PersistentRecordCache::Open(path, CacheMode::kReadWrite, 7);
    MODIS_CHECK(build.ok());
    for (size_t i = 0; i < records; ++i) {
      const StoredRecord r = MakeRecord(7, i);
      (*build)->Insert(r.key, r.features, r.eval);
    }
    MODIS_CHECK((*build)->Flush().ok());
  }
  auto cache = PersistentRecordCache::Open(path, CacheMode::kRead, 7);
  MODIS_CHECK(cache.ok());
  StoredRecord out;
  size_t i = 0;
  for (auto _ : state) {
    const std::string key = "state-" + std::to_string((i * 2654435761u) %
                                                      records);
    MODIS_CHECK((*cache)->Get(7, key, &out));
    benchmark::DoNotOptimize(out);
    ++i;
  }
  cache.value().reset();
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordCacheGet);

void BM_RecordCacheInsertFlush(benchmark::State& state) {
  // Append throughput: N inserts into a fresh log plus the one Flush a
  // batch commit pays.
  const size_t n = state.range(0);
  const std::string path = ScratchPath("insert");
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(path.c_str());
    auto cache = PersistentRecordCache::Open(path, CacheMode::kReadWrite, 7);
    MODIS_CHECK(cache.ok());
    state.ResumeTiming();
    for (size_t i = 0; i < n; ++i) {
      const StoredRecord r = MakeRecord(7, i);
      (*cache)->Insert(r.key, r.features, r.eval);
    }
    MODIS_CHECK((*cache)->Flush().ok());
    state.PauseTiming();
    cache.value().reset();
    state.ResumeTiming();
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RecordCacheInsertFlush)->Arg(256)->Arg(2048);

void BM_KMeans1D(benchmark::State& state) {
  Rng data_rng(6);
  std::vector<double> data(state.range(0));
  for (double& v : data) v = data_rng.Normal();
  for (auto _ : state) {
    Rng rng(7);
    auto r = KMeans1D(data, 30, &rng);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeans1D)->Arg(1000)->Arg(10000);

/// A task's model prototype and the train split one exact valuation of
/// the full universe fits, at the serving workload's row scale (0.4).
struct FitInput {
  TabularBench bench;
  MlDataset train;
};

const FitInput& FitInputFor(BenchTaskId id) {
  static std::map<BenchTaskId, FitInput> inputs;
  auto it = inputs.find(id);
  if (it != inputs.end()) return it->second;
  auto bench = MakeTabularBench(id, 0.4);
  MODIS_CHECK(bench.ok());
  BridgeOptions bridge;
  bridge.exclude = bench->task.exclude;
  auto encoded = TableToDataset(bench->universal, bench->task.target,
                                bench->task.task, bridge);
  MODIS_CHECK(encoded.ok());
  Rng split_rng(bench->task.seed);
  const SplitIndices split = TrainTestSplit(
      encoded->num_rows(), bench->task.test_fraction, &split_rng);
  MlDataset train = encoded->SelectRows(split.train);
  return inputs.emplace(id, FitInput{std::move(bench).value(), std::move(train)})
      .first->second;
}

/// One Fit of the task's model: gbm_reg (T1), rf_clf (T2), gbm_clf (T4).
void BM_ModelFit(benchmark::State& state, BenchTaskId id) {
  const FitInput& input = FitInputFor(id);
  for (auto _ : state) {
    std::unique_ptr<MlModel> model = input.bench.model->Clone();
    Rng rng(input.bench.task.seed);
    benchmark::DoNotOptimize(model->Fit(input.train, &rng));
  }
  state.SetItemsProcessed(state.iterations() * input.train.num_rows());
}
BENCHMARK_CAPTURE(BM_ModelFit, gbm_reg_T1, BenchTaskId::kMovie)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ModelFit, rf_clf_T2, BenchTaskId::kHouse)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ModelFit, gbm_clf_T4, BenchTaskId::kMental)
    ->Unit(benchmark::kMillisecond);

/// 120 recorded (state features, normalized evaluation) tests of an
/// exact T3 search. T3 trains ridge, so the records do not depend on the
/// tree learner being measured.
const std::pair<Matrix, Matrix>& SurrogateRows() {
  static const std::pair<Matrix, Matrix> rows = [] {
    auto bench = MakeTabularBench(BenchTaskId::kAvocado, 0.4);
    MODIS_CHECK(bench.ok());
    auto universe =
        SearchUniverse::Build(bench->universal, bench->universe_options);
    MODIS_CHECK(universe.ok());
    SupervisedTask task = bench->task;
    task.measures.clear();
    for (const MeasureSpec& m : bench->task.measures) {
      if (m.name != "train_time") task.measures.push_back(m);
    }
    SupervisedEvaluator evaluator(task, bench->model->Clone());
    PerformanceOracle oracle(&evaluator);
    ModisConfig cfg;
    cfg.epsilon = 0.1;
    cfg.max_states = 120;
    cfg.max_level = 6;
    MODIS_CHECK(RunBiModis(*universe, &oracle, cfg).ok());
    const auto& records = oracle.store().records();
    MODIS_CHECK(records.size() == 120u);
    Matrix x(120, records[0].features.size());
    Matrix y(120, records[0].eval.normalized.size());
    for (size_t i = 0; i < 120; ++i) {
      for (size_t j = 0; j < x.cols(); ++j) {
        x.At(i, j) = records[i].features[j];
      }
      for (size_t j = 0; j < y.cols(); ++j) {
        y.At(i, j) = records[i].eval.normalized[j];
      }
    }
    return std::make_pair(std::move(x), std::move(y));
  }();
  return rows;
}

void BM_SurrogateFit(benchmark::State& state) {
  const auto& [x, y] = SurrogateRows();
  const SurrogateOptions surrogate;
  for (auto _ : state) {
    MultiOutputGbm model(surrogate.gbm);
    Rng rng(surrogate.seed);
    benchmark::DoNotOptimize(model.Fit(x, y, &rng));
  }
}
BENCHMARK(BM_SurrogateFit)->Unit(benchmark::kMillisecond);

void BM_SurrogatePredictRow(benchmark::State& state) {
  const auto& [x, y] = SurrogateRows();
  const SurrogateOptions surrogate;
  MultiOutputGbm model(surrogate.gbm);
  Rng rng(surrogate.seed);
  MODIS_CHECK(model.Fit(x, y, &rng).ok());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictRow(x.Row(i++ % x.rows())));
  }
}
BENCHMARK(BM_SurrogatePredictRow);

}  // namespace
}  // namespace modis

int main(int argc, char** argv) {
  // Repo-wide flag spelling: --json selects machine-readable output.
  static char json_flag[] = "--benchmark_format=json";
  std::vector<char*> args(argv, argv + argc);
  for (char*& arg : args) {
    if (std::strcmp(arg, "--json") == 0) arg = json_flag;
  }
  int json_argc = static_cast<int>(args.size());
  benchmark::Initialize(&json_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(json_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
