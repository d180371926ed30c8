/// Example 1 of the paper, end to end: harmful-algal-bloom (HAB)
/// forecasting. A research team has water / basin / nitrogen / phosphorus
/// tables and a random-forest-family regressor predicting the CI-index.
/// They issue the skyline query:
///
///   "Generate a dataset for which our model is expected to have RMSE
///    below 0.6 (normalized), R2-loss at most 0.35, and bounded training
///    cost"  (the bounds of Example 2).
///
/// This example builds the four-source lake, sets the measure ranges, and
/// runs ApxMODis + DivMODis, printing the skyline and which attributes
/// each suggested dataset keeps (the "what are crucial features" question
/// from the paper's introduction).
///
/// Build & run:  ./build/examples/hab_forecast

#include <cstdio>

#include "core/algorithms.h"
#include "datagen/data_lake.h"
#include "estimator/supervised_evaluator.h"
#include "ml/random_forest.h"

using namespace modis;

int main() {
  // The HAB lake: base table = CI-index observations keyed by site; the
  // feature tables play the roles of D_w (water), D_N (nitrogen), D_P
  // (phosphorus). Two "seasonal segments" carry corrupted sensors, so
  // dropping their rows (a Reduct like "year < 2003" in Fig. 2) helps.
  DataLakeSpec spec;
  spec.name = "hab";
  spec.num_rows = 1500;
  spec.num_tables = 4;
  spec.informative_per_table = 2;
  spec.noisy_per_table = 1;
  spec.redundant_per_table = 1;
  spec.task = TaskKind::kRegression;
  spec.target = "ci_index";
  spec.key = "site";
  spec.corrupt_noise = 2.0;
  spec.seed = 2013;
  auto lake = GenerateDataLake(spec);
  if (!lake.ok()) return 1;
  auto universal = LakeUniversalTable(lake.value());
  if (!universal.ok()) return 1;

  // Measures with the ranges of Example 2: RMSE in (0, 0.6], inverted R2
  // in (0, 0.35], training time in (0, 0.5] of its scale.
  MeasureSpec rmse = MeasureSpec::Minimize("rmse", /*scale=*/2.0);
  rmse.upper = 0.6;
  MeasureSpec r2 = MeasureSpec::Maximize("r2");  // Normalized as 1 - R2.
  r2.upper = 0.35;
  MeasureSpec train = MeasureSpec::Minimize("train_time", /*scale=*/2.0);
  train.upper = 0.5;

  SupervisedTask task;
  task.target = spec.target;
  task.task = TaskKind::kRegression;
  task.exclude = {spec.key};
  task.measures = {rmse, r2, train};
  ForestOptions forest;
  forest.num_trees = 20;
  SupervisedEvaluator evaluator(
      task, std::make_unique<RandomForestRegressor>(forest));

  SearchUniverse::Options opts;
  opts.protected_attributes = {spec.target, spec.key};
  opts.max_clusters = 5;
  auto universe = SearchUniverse::Build(universal.value(), opts);
  if (!universe.ok()) return 1;

  ModisConfig config;
  config.epsilon = 0.2;
  config.max_states = 150;
  config.max_level = 4;
  config.diversify_k = 3;

  for (bool diversify : {false, true}) {
    PerformanceOracle oracle(&evaluator);
    auto result = diversify ? RunDivModis(*universe, &oracle, config)
                            : RunApxModis(*universe, &oracle, config);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      continue;
    }
    std::printf("\n%s: %zu skyline datasets (all satisfying the query "
                "bounds):\n",
                diversify ? "DivMODis (bias-mitigated)" : "ApxMODis",
                result->skyline.size());
    for (const auto& entry : result->skyline) {
      auto exact = evaluator.Evaluate(universe->Materialize(entry.state));
      if (!exact.ok()) continue;
      std::printf("  rmse=%.3f  R2=%.3f  train=%.3fs  rows=%zu  features:",
                  exact->raw[0], exact->raw[1], exact->raw[2], entry.rows);
      const auto& layout = universe->layout();
      for (size_t a = 0; a < layout.num_attributes(); ++a) {
        if (entry.state.Get(a) && layout.attributes[a] != spec.key &&
            layout.attributes[a] != spec.target) {
          std::printf(" %s", layout.attributes[a].c_str());
        }
      }
      std::printf("\n");
    }
  }
  return 0;
}
