/// Task T5 as a library example: skyline *graph* data generation for a
/// GNN recommender. The dataset is an edge table of a user-item bipartite
/// graph; Augment/Reduct act as edge insertions/deletions; the model is
/// LightGCN-lite; the measures are Precision@k / Recall@k / NDCG@k.
///
/// The search learns to delete the low-affinity cross-community noise
/// edges, improving every ranking measure over the original graph.
///
/// Build & run:  ./build/examples/graph_recommendation

#include <cstdio>

#include "core/algorithms.h"
#include "datagen/graph_gen.h"
#include "estimator/link_evaluator.h"

using namespace modis;

int main() {
  // A community-structured interaction lake with injected noise edges.
  GraphLakeSpec spec;
  spec.num_users = 50;
  spec.num_items = 100;
  spec.num_communities = 4;
  spec.noise_edges_per_user = 5;
  spec.seed = 99;
  auto lake = GenerateGraphLake(spec);
  if (!lake.ok()) return 1;
  std::printf("edge table: %zu interactions (incl. noise), %d users, %d "
              "items\n",
              lake->edge_table.num_rows(), spec.num_users, spec.num_items);

  // The link-regression task: LightGCN-lite + ranking measures, held-out
  // intra-community edges as the fixed test set.
  LinkTask task;
  task.num_users = spec.num_users;
  task.num_items = spec.num_items;
  task.test_edges = lake->test_edges;
  task.measures = {MeasureSpec::Maximize("p@5"), MeasureSpec::Maximize("r@5"),
                   MeasureSpec::Maximize("ndcg@5")};
  task.model.epochs = 25;
  LinkEvaluator evaluator(task);

  auto original = evaluator.Evaluate(lake->edge_table);
  if (!original.ok()) return 1;
  std::printf("original graph: p@5=%.3f r@5=%.3f ndcg@5=%.3f\n",
              original->raw[0], original->raw[1], original->raw[2]);

  // Search universe over the edge table; endpoints are protected so only
  // edge-attribute clusters (affinity / recency) drive deletions.
  SearchUniverse::Options opts;
  opts.protected_attributes = {"user", "item"};
  opts.max_clusters = 4;
  auto universe = SearchUniverse::Build(lake->edge_table, opts);
  if (!universe.ok()) return 1;

  PerformanceOracle oracle(&evaluator);
  ModisConfig config;
  config.epsilon = 0.15;
  config.max_states = 60;
  config.max_level = 3;
  auto result = RunBiModis(*universe, &oracle, config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("skyline graphs (%zu):\n", result->skyline.size());
  for (const auto& entry : result->skyline) {
    auto exact = evaluator.Evaluate(universe->Materialize(entry.state));
    if (!exact.ok()) continue;
    std::printf("  p@5=%.3f r@5=%.3f ndcg@5=%.3f  edges=%zu (was %zu)\n",
                exact->raw[0], exact->raw[1], exact->raw[2], entry.rows,
                lake->edge_table.num_rows());
  }
  return 0;
}
