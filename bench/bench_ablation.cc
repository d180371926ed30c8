/// Ablation studies for the design choices called out in DESIGN.md:
///  (1) reduce-from-universal vs backward-only augmentation — justifying
///      §5.2's "start dense" argument;
///  (2) correlation-based pruning on/off at matched budgets — valuations
///      saved vs skyline quality kept (Lemma 4 safety, Exp-3 speedups);
///  (3) decisive-measure choice — the paper's remark that any measure can
///      be decisive and results carry over.
///
/// Flags: `--json` emits per-run records (metric `best_f1`); `--threads N`
/// / `--record-cache PATH` are forwarded to every run (the three studies
/// share the T2 house universe, so one cache warms across all of them).

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

struct PanelContext {
  const BenchOptions* opts;
  std::vector<RunRecord>* records;
};

/// Folds one ablation run into the JSON records. The metric (best f1)
/// is omitted when the skyline came out empty, so a failed run is
/// distinguishable from a genuine f1 of 0.
void RecordRun(const PanelContext& ctx, const std::string& panel,
               const std::string& variant, const std::string& param,
               double param_value, const ModisResult& result,
               const Result<MethodReport>& report, size_t f1) {
  RunRecord rec = MakeRunRecord("ablation", panel, "T2", variant, param,
                                param_value, result,
                                ResolvedThreads(*ctx.opts));
  if (report.ok()) {
    rec.metric = "best_f1";
    rec.metric_value = report->eval.raw[f1];
  }
  ctx.records->push_back(std::move(rec));
}

Status ReduceVsAugment(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kHouse, 0.6));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  const size_t f1 = MeasureIndex(bench.task.measures, "f1");

  if (!ctx.opts->json) {
    std::printf(
        "\n== Ablation 1: reduce-from-universal vs bidirectional ==\n");
  }
  ModisConfig config;
  config.epsilon = 0.15;
  config.max_states = 150;
  config.max_level = 4;
  ApplyBenchOptions(*ctx.opts, &config);
  for (Algo algo : {Algo::kApx, Algo::kNoBi}) {
    auto evaluator = bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunAlgo(algo, universe, &oracle, config));
    auto report =
        ReportBestBy(AlgoName(algo), result, f1, universe, evaluator.get());
    RecordRun(ctx, "reduce_vs_augment", AlgoName(algo), "", 0.0, result,
              report, f1);
    if (!report.ok() || ctx.opts->json) continue;
    std::printf("%s best f1=%.4f skyline=%zu valuated=%zu time=%.2fs\n",
                PadRight(AlgoName(algo), 11).c_str(), report->eval.raw[f1],
                result.skyline.size(), result.valuated_states,
                result.seconds);
  }
  if (!ctx.opts->json) {
    std::printf("expected: the universal start already reaches strong f1 at "
                "level 1 (dense data), the bidirectional run adds cheaper "
                "small-table candidates.\n");
  }
  return Status::OK();
}

Status PruningOnOff(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kHouse, 0.6));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  const size_t f1 = MeasureIndex(bench.task.measures, "f1");

  if (!ctx.opts->json) {
    std::printf("\n== Ablation 2: correlation-based pruning on/off ==\n");
  }
  ModisConfig config;
  config.epsilon = 0.25;
  config.max_states = 200;
  config.max_level = 4;
  ApplyBenchOptions(*ctx.opts, &config);
  for (Algo algo : {Algo::kNoBi, Algo::kBi}) {
    auto evaluator = bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunAlgo(algo, universe, &oracle, config));
    auto report =
        ReportBestBy(AlgoName(algo), result, f1, universe, evaluator.get());
    RecordRun(ctx, "pruning", AlgoName(algo), "", 0.0, result, report, f1);
    if (ctx.opts->json) continue;
    std::printf("%s pruned=%zu valuated=%zu time=%.2fs best f1=%s\n",
                PadRight(AlgoName(algo), 11).c_str(), result.pruned_states,
                result.valuated_states, result.seconds,
                report.ok() ? FormatDouble(report->eval.raw[f1], 4).c_str()
                            : "-");
  }
  if (!ctx.opts->json) {
    std::printf("expected: BiMODis valuates fewer states at comparable best "
                "f1 (Lemma 4: pruned states are epsilon-dominated).\n");
  }
  return Status::OK();
}

Status DecisiveMeasureChoice(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kHouse, 0.6));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  const size_t f1 = MeasureIndex(bench.task.measures, "f1");

  if (!ctx.opts->json) {
    std::printf("\n== Ablation 3: decisive measure choice ==\n");
  }
  for (size_t decisive = 0; decisive < bench.task.measures.size();
       ++decisive) {
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 120;
    config.max_level = 3;
    config.decisive_measure = decisive;
    ApplyBenchOptions(*ctx.opts, &config);
    auto evaluator = bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunApxModis(universe, &oracle, config));
    auto report =
        ReportBestBy("ApxMODis", result, f1, universe, evaluator.get());
    RecordRun(ctx, "decisive", bench.task.measures[decisive].name,
              "decisive_measure", double(decisive), result, report, f1);
    if (ctx.opts->json) continue;
    std::printf("decisive=%s skyline=%zu best f1=%s\n",
                PadRight(bench.task.measures[decisive].name, 11).c_str(),
                result.skyline.size(),
                report.ok() ? FormatDouble(report->eval.raw[f1], 4).c_str()
                            : "-");
  }
  if (!ctx.opts->json) {
    std::printf("expected: best f1 stays in a narrow band for every "
                "decisive choice (the paper's 'results carry over' "
                "remark).\n");
  }
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main(int argc, char** argv) {
  const modis::bench::BenchOptions opts =
      modis::bench::ParseBenchOptions(argc, argv);
  std::vector<modis::bench::RunRecord> records;
  modis::bench::PanelContext ctx{&opts, &records};
  if (!opts.json) {
    std::printf("Ablation benches (design choices of the MODis "
                "reproduction)\n");
  }
  for (auto* fn : {modis::bench::ReduceVsAugment, modis::bench::PruningOnOff,
                   modis::bench::DecisiveMeasureChoice}) {
    modis::Status s = fn(ctx);
    if (!s.ok()) std::fprintf(stderr, "ablation failed: %s\n",
                              s.ToString().c_str());
  }
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
