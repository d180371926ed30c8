/// Reproduces Figure 8 of the paper: impact of the generation settings on
/// effectiveness.
///  (a) T1 accuracy vs ε in {0.5 .. 0.1}, maxl = 6;
///  (b) T1 accuracy vs maxl in {2 .. 6}, ε = 0.1;
///  (c) T2 F1 vs ε in {0.1 .. 0.02};
///  (d) T2 F1 vs maxl in {2 .. 6}.
///
/// Expected shape (paper): smaller ε and larger maxl improve the selected
/// measure for all MODis variants; bidirectional variants benefit the most
/// from larger maxl; ApxMODis is the least sensitive.
///
/// Flags: `--json` emits per-run records (metric = best raw value of the
/// selected measure); `--threads N` / `--record-cache PATH` are forwarded
/// to every run.

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

struct PanelContext {
  const BenchOptions* opts;
  std::vector<RunRecord>* records;
};

struct Sweep {
  TabularBench bench;
  SearchUniverse universe;
  size_t measure;
};

Result<Sweep> MakeSweep(BenchTaskId id, double row_scale,
                        const std::string& select) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench, MakeTabularBench(id, row_scale));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  const size_t measure = MeasureIndex(bench.task.measures, select);
  return Sweep{std::move(bench), std::move(universe), measure};
}

/// Best raw value of the selected measure after one run, plus the run's
/// engine counters (for the --json records).
struct BestOutcome {
  double best = 0.0;
  ModisResult result;
};

Result<BestOutcome> BestRaw(Sweep* sweep, Algo algo,
                            const ModisConfig& config) {
  auto evaluator = sweep->bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get(), SurrogateOptions{});
  MODIS_ASSIGN_OR_RETURN(ModisResult result,
                         RunAlgo(algo, sweep->universe, &oracle, config));
  MODIS_ASSIGN_OR_RETURN(MethodReport report,
                         ReportBestBy(AlgoName(algo), result, sweep->measure,
                                      sweep->universe, evaluator.get()));
  return BestOutcome{report.eval.raw[sweep->measure], std::move(result)};
}

/// One (config value, variant) cell: run, record, return the printable
/// cell text.
std::string Cell(const PanelContext& ctx, Sweep* sweep, Algo algo,
                 const ModisConfig& config, const std::string& panel,
                 const std::string& task, const std::string& select,
                 const std::string& param, double param_value) {
  auto outcome = BestRaw(sweep, algo, config);
  if (!outcome.ok()) return "-";
  RunRecord rec =
      MakeRunRecord("fig8", panel, task, AlgoName(algo), param, param_value,
                    outcome->result, ResolvedThreads(*ctx.opts));
  rec.metric = "best_" + select;
  rec.metric_value = outcome->best;
  ctx.records->push_back(std::move(rec));
  return FormatDouble(outcome->best, 4);
}

Status SweepEpsilon(const PanelContext& ctx, BenchTaskId id,
                    double row_scale, const std::string& select,
                    const std::vector<double>& epsilons, const char* panel) {
  MODIS_ASSIGN_OR_RETURN(Sweep sweep, MakeSweep(id, row_scale, select));
  if (!ctx.opts->json) {
    std::printf("\n== Figure 8(%s) / %s: %s vs epsilon (maxl=4) ==\n",
                panel, BenchTaskName(id), select.c_str());
    std::printf("%s", PadRight("epsilon", 9).c_str());
    for (Algo a : {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv}) {
      std::printf(" %s", PadRight(AlgoName(a), 11).c_str());
    }
    std::printf("\n");
  }
  for (double eps : epsilons) {
    ModisConfig config;
    config.epsilon = eps;
    config.max_states = 140;
    config.max_level = 4;
    ApplyBenchOptions(*ctx.opts, &config);
    std::string row = PadRight(FormatDouble(eps, 2), 9);
    for (Algo a : {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv}) {
      row += " " + PadRight(Cell(ctx, &sweep, a, config, panel,
                                 BenchTaskName(id), select, "epsilon", eps),
                            11);
    }
    if (!ctx.opts->json) std::printf("%s\n", row.c_str());
  }
  return Status::OK();
}

Status SweepMaxl(const PanelContext& ctx, BenchTaskId id, double row_scale,
                 const std::string& select, const char* panel) {
  MODIS_ASSIGN_OR_RETURN(Sweep sweep, MakeSweep(id, row_scale, select));
  if (!ctx.opts->json) {
    std::printf("\n== Figure 8(%s) / %s: %s vs maxl (epsilon=0.1) ==\n",
                panel, BenchTaskName(id), select.c_str());
    std::printf("%s", PadRight("maxl", 9).c_str());
    for (Algo a : {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv}) {
      std::printf(" %s", PadRight(AlgoName(a), 11).c_str());
    }
    std::printf("\n");
  }
  for (int maxl = 2; maxl <= 6; ++maxl) {
    ModisConfig config;
    config.epsilon = 0.1;
    config.max_states = 140;
    config.max_level = maxl;
    ApplyBenchOptions(*ctx.opts, &config);
    std::string row = PadRight(std::to_string(maxl), 9);
    for (Algo a : {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv}) {
      row += " " + PadRight(Cell(ctx, &sweep, a, config, panel,
                                 BenchTaskName(id), select, "maxl",
                                 double(maxl)),
                            11);
    }
    if (!ctx.opts->json) std::printf("%s\n", row.c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main(int argc, char** argv) {
  using modis::BenchTaskId;
  const modis::bench::BenchOptions opts =
      modis::bench::ParseBenchOptions(argc, argv);
  std::vector<modis::bench::RunRecord> records;
  modis::bench::PanelContext ctx{&opts, &records};
  if (!opts.json) {
    std::printf("Reproduction of Figure 8 (EDBT'25 MODis): impact factors\n");
  }
  modis::Status s = modis::bench::SweepEpsilon(
      ctx, BenchTaskId::kMovie, 0.3, "acc", {0.5, 0.4, 0.3, 0.2, 0.1}, "a");
  if (!s.ok()) std::fprintf(stderr, "8a failed: %s\n", s.ToString().c_str());
  s = modis::bench::SweepMaxl(ctx, BenchTaskId::kMovie, 0.3, "acc", "b");
  if (!s.ok()) std::fprintf(stderr, "8b failed: %s\n", s.ToString().c_str());
  s = modis::bench::SweepEpsilon(ctx, BenchTaskId::kHouse, 0.5, "f1",
                                 {0.1, 0.08, 0.05, 0.02}, "c");
  if (!s.ok()) std::fprintf(stderr, "8c failed: %s\n", s.ToString().c_str());
  s = modis::bench::SweepMaxl(ctx, BenchTaskId::kHouse, 0.5, "f1", "d");
  if (!s.ok()) std::fprintf(stderr, "8d failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
