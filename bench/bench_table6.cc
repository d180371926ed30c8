/// Reproduces Table 6 (appendix) of the paper: multi-objective comparison
/// on T1 (movie-gross GBM regression, measures acc/fisher/mi/train) and T3
/// (avocado-price ridge regression, measures mse/mae/train).
///
/// Expected shape (paper): MODis variants take the top spots on the first
/// metric of each task (acc for T1, MSE for T3) with smaller output
/// datasets and lower training cost; NOBiMODis/BiMODis lead most rows.
///
/// Flags: `--json` emits one MethodRecord per method instead of the
/// tables; `--threads N` / `--record-cache PATH` are forwarded to the
/// MODis runs.

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

  std::vector<MethodReport> methods;
  MODIS_ASSIGN_OR_RETURN(BaselineResult original,
                         RunOriginal(bench.universal, evaluator.get()));
  methods.push_back(FromBaseline(original));

  MetamOptions metam;
  metam.utility_measure = MeasureIndex(bench.task.measures, select);
  MODIS_ASSIGN_OR_RETURN(BaselineResult m1,
                         RunMetam(bench.lake, evaluator.get(), metam));
  methods.push_back(FromBaseline(m1));
  metam.multi_objective = true;
  MODIS_ASSIGN_OR_RETURN(BaselineResult m2,
                         RunMetam(bench.lake, evaluator.get(), metam));
  methods.push_back(FromBaseline(m2));
  MODIS_ASSIGN_OR_RETURN(BaselineResult st,
                         RunStarmieLite(bench.lake, evaluator.get()));
  methods.push_back(FromBaseline(st));
  MODIS_ASSIGN_OR_RETURN(
      BaselineResult sk,
      RunSkSfm(bench.universal, evaluator.get(), bench.model.get()));
  methods.push_back(FromBaseline(sk));
  MODIS_ASSIGN_OR_RETURN(BaselineResult h2o,
                         RunH2oFs(bench.universal, evaluator.get()));
  methods.push_back(FromBaseline(h2o));

  ModisConfig config;
  config.epsilon = 0.15;
  config.max_states = 180;
  config.max_level = 4;
  ApplyBenchOptions(opts, &config);
  MODIS_ASSIGN_OR_RETURN(
      std::vector<MethodReport> modis,
      RunAllModis(bench, universe, config,
                  MeasureIndex(bench.task.measures, select), surrogate));
  for (auto& m : modis) methods.push_back(std::move(m));

  for (const MethodReport& m : methods) {
    records->push_back(MakeMethodRecord("table6", "", BenchTaskName(id), m,
                                        bench.task.measures));
  }
  if (!opts.json) {
    PrintMethodTable("Table 6 / " + bench.name + " (select by best " +
                         select + ")",
                     bench.task.measures, methods);
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
    std::printf(
        "Reproduction of Table 6 (EDBT'25 MODis): T1-movie, T3-avocado\n");
  }
  modis::Status s =
      modis::bench::RunTask(opts, &records, modis::BenchTaskId::kMovie, 0.5,
                            "acc", /*surrogate=*/true);
  if (!s.ok()) std::fprintf(stderr, "T1 failed: %s\n", s.ToString().c_str());
  s = modis::bench::RunTask(opts, &records, modis::BenchTaskId::kAvocado,
                            0.4, "mse", /*surrogate=*/false);
  if (!s.ok()) std::fprintf(stderr, "T3 failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
