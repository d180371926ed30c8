/// Supporting micro-benchmarks (google-benchmark) of the operator and
/// multi-objective kernels the search is built from: hash joins, Reduct,
/// Pareto fronts (naive vs Kung), ε-grid positions and 1-D k-means.
/// Everything on the serving path (materialization, dataset encoding,
/// model and surrogate training, record-cache get/insert, ParallelFor) is
/// timed by bench/e2e/bench_layers instead, one producer per metric.
///
/// `--json` is translated to google-benchmark's
/// `--benchmark_format=json`, so this binary shares the repo-wide
/// machine-readable output flag.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/kmeans.h"
#include "common/rng.h"
#include "moo/pareto.h"
#include "ops/operators.h"

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
