/// Reproduces the estimator claim of §6 ("Estimator E"): the MO-GBM
/// surrogate valuates the whole performance vector of one state far faster
/// than an exact model (re)training, with small prediction error.
///
/// Prints: per-test cost of exact valuation vs MO-GBM valuation, the
/// speedup, and the surrogate's shadow MSE on held-out exact evaluations
/// (paper reports <= 0.2 s per state and MSE ~ 0.0003 on T1 "accuracy").

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

Status Run() {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kMovie, 0.4));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  auto evaluator = bench.MakeEvaluator();

  SurrogateOptions opts;
  opts.bootstrap_budget = 24;
  opts.exact_fraction = 0.2;  // Keep shadow-checking the surrogate.
  PerformanceOracle oracle(evaluator.get(), opts);

  ModisConfig config;
  config.epsilon = 0.2;
  config.max_states = 250;
  config.max_level = 4;
  MODIS_ASSIGN_OR_RETURN(ModisResult result,
                         RunNoBiModis(universe, &oracle, config));

  const auto& st = oracle.stats();
  std::printf("\n== MO-GBM estimator profile (task T1) ==\n");
  std::printf("search: %zu states valuated, %zu skyline, %.2f s total\n",
              result.valuated_states, result.skyline.size(), result.seconds);
  std::printf("exact valuations     : %zu (%.4f s/test)\n", st.exact_evals,
              st.exact_evals ? st.exact_seconds / st.exact_evals : 0.0);
  std::printf("surrogate valuations : %zu (%.6f s/test)\n",
              st.surrogate_evals,
              st.surrogate_evals ? st.surrogate_seconds / st.surrogate_evals
                                 : 0.0);
  if (st.exact_evals && st.surrogate_evals && st.surrogate_seconds > 0.0) {
    std::printf("speedup per test     : %.0fx\n",
                (st.exact_seconds / st.exact_evals) /
                    (st.surrogate_seconds / st.surrogate_evals));
  }
  std::printf("shadow MSE (normalized measures, all outputs): %.6f\n",
              oracle.SurrogateMse());
  std::printf("paper's reference point: <=0.2 s per state, MSE ~0.0003 on "
              "'accuracy' (T1)\n");
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main() {
  std::printf("Reproduction of the estimator study (§2/§6, EDBT'25 MODis)\n");
  modis::Status s = modis::bench::Run();
  if (!s.ok()) std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
  return 0;
}
