/// Using MODis on your own CSV files: load source tables from disk, build
/// the universal table with full outer joins on a shared key, run the
/// search, and write the suggested skyline datasets back out as CSVs.
///
/// This example writes a tiny demo lake to a temp directory first, so it
/// is runnable out of the box; point `dir` at your own files to reuse it.
///
/// Build & run:  ./build/examples/csv_lake

#include <cstdio>
#include <filesystem>

#include "core/algorithms.h"
#include "datagen/data_lake.h"
#include "estimator/supervised_evaluator.h"
#include "ml/gradient_boosting.h"
#include "ops/operators.h"
#include "table/csv.h"

using namespace modis;

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "modis_csv_lake";
  fs::create_directories(dir);

  // --- Step 0 (demo only): materialize a small lake as CSV files.
  {
    DataLakeSpec spec;
    spec.num_rows = 600;
    spec.num_tables = 3;
    spec.task = TaskKind::kRegression;
    spec.seed = 5;
    auto lake = GenerateDataLake(spec);
    if (!lake.ok()) return 1;
    for (size_t t = 0; t < lake->tables.size(); ++t) {
      auto path = dir / ("source_" + std::to_string(t) + ".csv");
      if (!WriteCsvFile(lake->tables[t], path.string()).ok()) return 1;
    }
  }

  // --- Step 1: read every CSV in the directory as a source table.
  std::vector<Table> sources;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".csv") continue;
    auto table = ReadCsvFile(entry.path().string());
    if (!table.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", entry.path().c_str(),
                   table.status().ToString().c_str());
      continue;
    }
    std::printf("loaded %s: %zu x %zu\n", entry.path().filename().c_str(),
                table->num_rows(), table->num_cols());
    sources.push_back(std::move(table).value());
  }

  // --- Step 2: universal table via multi-way full outer join on "id".
  auto universal = BuildUniversalTable(sources, "id");
  if (!universal.ok()) {
    std::fprintf(stderr, "join: %s\n", universal.status().ToString().c_str());
    return 1;
  }
  std::printf("universal table: %zu x %zu\n", universal->num_rows(),
              universal->num_cols());

  // --- Step 3: declare the task and search.
  SupervisedTask task;
  task.target = "target";
  task.task = TaskKind::kRegression;
  task.exclude = {"id"};
  task.measures = {MeasureSpec::Minimize("mse", 4.0),
                   MeasureSpec::Minimize("train_time", 1.0)};
  SupervisedEvaluator evaluator(
      task, std::make_unique<GradientBoostingRegressor>(GbmOptions{
                .num_rounds = 30}));

  SearchUniverse::Options opts;
  opts.protected_attributes = {"target", "id"};
  auto universe = SearchUniverse::Build(universal.value(), opts);
  if (!universe.ok()) return 1;

  PerformanceOracle oracle(&evaluator);
  ModisConfig config;
  config.epsilon = 0.2;
  config.max_states = 100;
  config.max_level = 3;
  auto result = RunNoBiModis(*universe, &oracle, config);
  if (!result.ok()) return 1;

  // --- Step 4: write the skyline datasets next to the sources.
  std::printf("writing %zu skyline datasets to %s\n",
              result->skyline.size(), dir.c_str());
  size_t i = 0;
  for (const auto& entry : result->skyline) {
    Table dataset = universe->Materialize(entry.state);
    const auto path = dir / ("skyline_" + std::to_string(i++) + ".csv");
    if (WriteCsvFile(dataset, path.string()).ok()) {
      std::printf("  %s (%zu x %zu, mse_norm=%.3f)\n",
                  path.filename().c_str(), dataset.num_rows(),
                  dataset.num_cols(), entry.eval.normalized[0]);
    }
  }
  return 0;
}
