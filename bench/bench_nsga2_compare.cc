/// Reproduces the §5.4 "Remarks" comparison: MODis (training- and
/// tuning-free, deterministic) vs an evolutionary multi-objective
/// optimizer (NSGA-II) over the same state space, at matched valuation
/// budgets. Skyline quality is scored with the hypervolume indicator over
/// normalized measures (reference point = the per-measure upper bounds).
///
/// Expected shape: MODis reaches an equal-or-better hypervolume with the
/// same number of model valuations and without generations of stochastic
/// crossover/mutation; NSGA-II needs more evaluations to match it.

#include <cstdio>

#include "baselines/nsga2_modis.h"
#include "bench/bench_util.h"
#include "moo/hypervolume.h"

namespace modis::bench {
namespace {

double FrontHypervolume(const std::vector<SkylineEntry>& skyline,
                        const std::vector<double>& reference) {
  std::vector<PerfVector> pts;
  for (const auto& e : skyline) pts.push_back(e.eval.normalized);
  return Hypervolume(pts, reference);
}

Status Run() {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kHouse, 0.5));
  // Compare on the bounded quality measures {f1, acc, train_time} so the
  // hypervolume is not dominated by degenerate tiny datasets maximizing
  // the unbounded fisher/mi scores.
  bench.task.measures = {MeasureSpec::Maximize("f1"),
                         MeasureSpec::Maximize("acc"),
                         MeasureSpec::Minimize("train_time", 1.0)};
  // Both optimizers face the same feasibility region: datasets below 200
  // rows are rejected, so neither can exploit tiny-test-split variance.
  bench.task.min_rows = 200;
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  // Reference point: slightly beyond the worst admissible value (1.0 per
  // normalized measure).
  std::vector<double> reference(bench.task.measures.size(), 1.01);

  std::printf("\n== MODis vs NSGA-II at matched valuation budgets "
              "(T2-house) ==\n");
  std::printf("%s %s %s %s %s\n", PadRight("method", 11).c_str(),
              PadRight("trains", 7).c_str(), PadRight("front", 6).c_str(),
              PadRight("hypervol", 9).c_str(), PadRight("seconds", 8).c_str());

  for (size_t budget : {60, 120, 240}) {
    {
      auto evaluator = bench.MakeEvaluator();
      PerformanceOracle oracle(evaluator.get());
      ModisConfig config;
      config.epsilon = 0.2;
      config.max_states = budget;
      config.max_level = 4;
      MODIS_ASSIGN_OR_RETURN(ModisResult result,
                             RunNoBiModis(universe, &oracle, config));
      std::printf("%s %s %s %s %s\n", PadRight("NOBiMODis", 11).c_str(),
                  PadRight(std::to_string(oracle.stats().exact_evals), 7)
                      .c_str(),
                  PadRight(std::to_string(result.skyline.size()), 6).c_str(),
                  PadRight(FormatDouble(
                               FrontHypervolume(result.skyline, reference), 4),
                           9)
                      .c_str(),
                  PadRight(FormatDouble(result.seconds, 2), 8).c_str());
    }
    {
      auto evaluator = bench.MakeEvaluator();
      PerformanceOracle oracle(evaluator.get());
      Nsga2Options opts;
      opts.population = 24;
      opts.generations = 100;  // Budget-capped, generations are the limit.
      opts.max_evaluations = budget;
      MODIS_ASSIGN_OR_RETURN(Nsga2ModisResult result,
                             RunNsga2Modis(universe, &oracle, opts));
      std::printf("%s %s %s %s %s\n", PadRight("NSGA-II", 11).c_str(),
                  PadRight(std::to_string(oracle.stats().exact_evals), 7)
                      .c_str(),
                  PadRight(std::to_string(result.skyline.size()), 6).c_str(),
                  PadRight(FormatDouble(
                               FrontHypervolume(result.skyline, reference), 4),
                           9)
                      .c_str(),
                  PadRight(FormatDouble(result.seconds, 2), 8).c_str());
    }
  }
  std::printf("(hypervolume over normalized-minimized measures; larger is "
              "better)\n");
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main() {
  std::printf("MODis vs NSGA-II (the paper's §5.4 Remarks alternative)\n");
  modis::Status s = modis::bench::Run();
  if (!s.ok()) std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
  return 0;
}
