/// Quickstart: generate a skyline dataset set for a classifier in ~60
/// lines.
///
/// The pipeline mirrors the paper's workflow:
///  1. assemble a data lake and its universal table D_U,
///  2. declare the model M and the measure set P,
///  3. build the search universe (bitmap layout from active-domain
///     clustering),
///  4. run BiMODis and inspect the ε-skyline.
///
/// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/algorithms.h"
#include "datagen/data_lake.h"
#include "estimator/supervised_evaluator.h"
#include "ml/random_forest.h"

using namespace modis;

int main() {
  // 1. A small synthetic data lake: one base table (id, segment, target)
  //    plus three feature tables, joinable on "id".
  DataLakeSpec spec;
  spec.num_rows = 800;
  spec.num_tables = 4;
  spec.task = TaskKind::kClassification;
  spec.num_classes = 2;
  spec.seed = 7;
  auto lake = GenerateDataLake(spec);
  if (!lake.ok()) {
    std::fprintf(stderr, "lake: %s\n", lake.status().ToString().c_str());
    return 1;
  }
  auto universal = LakeUniversalTable(lake.value());
  if (!universal.ok()) return 1;
  std::printf("universal table D_U: %zu rows x %zu columns\n",
              universal->num_rows(), universal->num_cols());

  // 2. The model M (a random forest) and measures P = {accuracy, F1,
  //    training time}, all normalized to (0,1] and minimized internally.
  SupervisedTask task;
  task.target = spec.target;
  task.task = TaskKind::kClassification;
  task.exclude = {spec.key};
  task.measures = {MeasureSpec::Maximize("acc"), MeasureSpec::Maximize("f1"),
                   MeasureSpec::Minimize("train_time", /*scale=*/1.0)};
  SupervisedEvaluator evaluator(task, std::make_unique<RandomForestClassifier>());

  // 3. The search universe: bitmap units = attributes + active-domain
  //    clusters; the target and join key are protected from operators.
  SearchUniverse::Options opts;
  opts.protected_attributes = {spec.target, spec.key};
  opts.max_clusters = 5;
  auto universe = SearchUniverse::Build(universal.value(), opts);
  if (!universe.ok()) return 1;

  // 4. Run BiMODis with an exact oracle (small data -> retraining per
  //    state is fine; pass SurrogateOptions{} for larger lakes).
  PerformanceOracle oracle(&evaluator);
  ModisConfig config;
  config.epsilon = 0.2;
  config.max_states = 120;
  config.max_level = 3;
  auto result = RunBiModis(*universe, &oracle, config);
  if (!result.ok()) {
    std::fprintf(stderr, "search: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("valuated %zu states in %.2f s; skyline has %zu datasets:\n",
              result->valuated_states, result->seconds,
              result->skyline.size());
  for (const auto& entry : result->skyline) {
    auto exact = evaluator.Evaluate(universe->Materialize(entry.state));
    if (!exact.ok()) continue;
    std::printf("  acc=%.3f f1=%.3f train=%.4fs  (%zu rows, %zu cols)\n",
                exact->raw[0], exact->raw[1], exact->raw[2], entry.rows,
                entry.cols);
  }
  return 0;
}
