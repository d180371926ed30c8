/// Reproduces Figure 7 of the paper: radar-chart data of multi-measure
/// effectiveness on T1 (movie) and T3 (avocado). Each method is one series;
/// each measure axis is printed as relative improvement rImp(p) =
/// M(D_M).p / M(D_o).p over normalized-minimized values ("the outer, the
/// better" — here, larger numbers).
///
/// Expected shape (paper): MODis series enclose the baselines on most axes,
/// with feature-selection baselines winning only the training-time axis.
///
/// Flags: `--json` emits one MethodRecord per series (raw measure values,
/// including an Original row, so rImp is derivable); `--threads N` /
/// `--record-cache PATH` are forwarded to the MODis runs.

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

Status RunTask(const BenchOptions& opts, std::vector<MethodRecord>* records,
               BenchTaskId id, double row_scale, const std::string& select,
               bool surrogate) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench, MakeTabularBench(id, row_scale));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  auto evaluator = bench.MakeEvaluator();

  MODIS_ASSIGN_OR_RETURN(BaselineResult original,
                         RunOriginal(bench.universal, evaluator.get()));

  std::vector<MethodReport> methods;
  MetamOptions metam;
  metam.utility_measure = MeasureIndex(bench.task.measures, select);
  MODIS_ASSIGN_OR_RETURN(BaselineResult m1,
                         RunMetam(bench.lake, evaluator.get(), metam));
  methods.push_back(FromBaseline(m1));
  MODIS_ASSIGN_OR_RETURN(
      BaselineResult sk,
      RunSkSfm(bench.universal, evaluator.get(), bench.model.get()));
  methods.push_back(FromBaseline(sk));
  MODIS_ASSIGN_OR_RETURN(BaselineResult h2o,
                         RunH2oFs(bench.universal, evaluator.get()));
  methods.push_back(FromBaseline(h2o));

  ModisConfig config;
  config.epsilon = 0.15;
  config.max_states = 160;
  config.max_level = 4;
  ApplyBenchOptions(opts, &config);
  MODIS_ASSIGN_OR_RETURN(
      std::vector<MethodReport> modis,
      RunAllModis(bench, universe, config,
                  MeasureIndex(bench.task.measures, select), surrogate));
  for (auto& m : modis) methods.push_back(std::move(m));

  if (opts.json) {
    records->push_back(MakeMethodRecord("fig7", "", BenchTaskName(id),
                                        FromBaseline(original),
                                        bench.task.measures));
    for (const MethodReport& m : methods) {
      records->push_back(MakeMethodRecord("fig7", "", BenchTaskName(id), m,
                                          bench.task.measures));
    }
    return Status::OK();
  }

  std::printf("\n== Figure 7 radar series / %s (rImp per axis; >1 beats "
              "Original) ==\n",
              bench.name.c_str());
  std::printf("%s", PadRight("method", 12).c_str());
  for (const auto& m : bench.task.measures) {
    std::printf(" %s", PadRight(m.name, 10).c_str());
  }
  std::printf("\n");
  for (const auto& m : methods) {
    std::printf("%s", PadRight(m.name, 12).c_str());
    for (size_t j = 0; j < bench.task.measures.size(); ++j) {
      std::printf(" %s",
                  PadRight(FormatDouble(
                               RelativeImprovement(original.eval, m.eval, j),
                               3),
                           10)
                      .c_str());
    }
    std::printf("\n");
  }
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main(int argc, char** argv) {
  const modis::bench::BenchOptions opts =
      modis::bench::ParseBenchOptions(argc, argv);
  std::vector<modis::bench::MethodRecord> records;
  if (!opts.json) {
    std::printf("Reproduction of Figure 7 (EDBT'25 MODis): effectiveness "
                "radar series\n");
  }
  modis::Status s =
      modis::bench::RunTask(opts, &records, modis::BenchTaskId::kMovie, 0.4,
                            "acc", /*surrogate=*/true);
  if (!s.ok()) std::fprintf(stderr, "T1 failed: %s\n", s.ToString().c_str());
  s = modis::bench::RunTask(opts, &records, modis::BenchTaskId::kAvocado,
                            0.3, "mse", /*surrogate=*/false);
  if (!s.ok()) std::fprintf(stderr, "T3 failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
