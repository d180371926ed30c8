/// Reproduces the two case studies of Figure 11 / Exp-4.
///
/// Case 1 ("find data with models"): a material-science team improves an
/// X-ray peak classifier. BiMODis generates a small set of skyline
/// datasets whose (accuracy, training-cost, F1) triples beat the original
/// upload; METAM (single-objective on F1) is the comparison point.
///
/// Case 2 ("generating test data for model evaluation"): MODis is
/// configured with explicit bounds — accuracy > 0.85 and training cost
/// < 30 s — and must return a handful of admissible datasets quickly.

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

Status Case1() {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kXray, 1.0));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  auto evaluator = bench.MakeEvaluator();

  MODIS_ASSIGN_OR_RETURN(BaselineResult original,
                         RunOriginal(bench.universal, evaluator.get()));
  std::printf("\n== Case 1: X-ray peak classification ==\n");
  std::printf("original <acc, train, f1> = <%.4f, %.4f, %.4f>\n",
              original.eval.raw[0], original.eval.raw[1],
              original.eval.raw[2]);

  ModisConfig config;
  config.epsilon = 0.15;
  config.max_states = 150;
  config.max_level = 4;
  PerformanceOracle oracle(evaluator.get());
  MODIS_ASSIGN_OR_RETURN(ModisResult result,
                         RunBiModis(universe, &oracle, config));
  std::printf("BiMODis skyline (%zu datasets):\n", result.skyline.size());
  size_t shown = 0;
  for (const auto& e : result.skyline) {
    MODIS_ASSIGN_OR_RETURN(Evaluation exact,
                           evaluator->Evaluate(universe.Materialize(e.state)));
    std::printf("  D%zu: <%.4f, %.4f, %.4f>  size=(%zu,%zu)\n", ++shown,
                exact.raw[0], exact.raw[1], exact.raw[2], e.rows, e.cols);
    if (shown >= 3) break;
  }

  MetamOptions metam;
  metam.utility_measure = MeasureIndex(bench.task.measures, "f1");
  MODIS_ASSIGN_OR_RETURN(BaselineResult m,
                         RunMetam(bench.lake, evaluator.get(), metam));
  std::printf("METAM (F1 utility): <%.4f, %.4f, %.4f>  size=(%zu,%zu)\n",
              m.eval.raw[0], m.eval.raw[1], m.eval.raw[2],
              m.dataset.num_rows(), m.dataset.num_cols());
  return Status::OK();
}

Status Case2() {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kFeaturePool, 1.0));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  auto evaluator = bench.MakeEvaluator();

  std::printf("\n== Case 2: test-data generation with bounds "
              "(acc > 0.85, train < 30 s) ==\n");
  ModisConfig config;
  config.epsilon = 0.2;
  config.max_states = 120;
  config.max_level = 3;
  PerformanceOracle oracle(evaluator.get());
  MODIS_ASSIGN_OR_RETURN(ModisResult result,
                         RunBiModis(universe, &oracle, config));
  std::printf("generated %zu admissible datasets in %.1f seconds:\n",
              result.skyline.size(), result.seconds);
  size_t shown = 0;
  for (const auto& e : result.skyline) {
    MODIS_ASSIGN_OR_RETURN(Evaluation exact,
                           evaluator->Evaluate(universe.Materialize(e.state)));
    std::printf("  D%zu: <acc=%.2f, train=%.4fs>  size=(%zu,%zu)%s\n", ++shown,
                exact.raw[0], exact.raw[1], e.rows, e.cols,
                exact.raw[0] >= 0.85 ? "" : "  [below bound]");
    if (shown >= 3) break;
  }
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main() {
  std::printf("Reproduction of Exp-4 / Figure 11 (EDBT'25 MODis): case "
              "studies\n");
  modis::Status s = modis::bench::Case1();
  if (!s.ok()) std::fprintf(stderr, "case 1 failed: %s\n",
                            s.ToString().c_str());
  s = modis::bench::Case2();
  if (!s.ok()) std::fprintf(stderr, "case 2 failed: %s\n",
                            s.ToString().c_str());
  return 0;
}
