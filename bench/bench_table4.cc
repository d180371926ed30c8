/// Reproduces Table 4 of the paper: multi-objective comparison of data
/// discovery methods on T2 (house classification, random forest) and T4
/// (mental-health classification, LightGBM-lite).
///
/// For each task it prints one column per method — Original, METAM,
/// METAM-MO, Starmie, SkSFM, H2O, ApxMODis, NOBiMODis, BiMODis, DivMODis —
/// and one row per reported measure plus output size. The expected *shape*
/// (paper): MODis variants lead accuracy/F1 and improve training cost;
/// SkSFM/H2O are cheapest to train but lose accuracy; augmentation
/// baselines (METAM/Starmie) gain accuracy at training-cost expense.
///
/// Flags: `--json` emits one MethodRecord per method instead of the
/// tables; `--threads N` / `--record-cache PATH` are forwarded to the
/// MODis runs (the cache warms across the per-task variant sweep).

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
  config.diversify_k = 5;
  ApplyBenchOptions(opts, &config);
  MODIS_ASSIGN_OR_RETURN(
      std::vector<MethodReport> modis,
      RunAllModis(bench, universe, config,
                  MeasureIndex(bench.task.measures, select), surrogate));
  for (auto& m : modis) methods.push_back(std::move(m));

  for (const MethodReport& m : methods) {
    records->push_back(MakeMethodRecord("table4", "", BenchTaskName(id), m,
                                        bench.task.measures));
  }
  if (!opts.json) {
    PrintMethodTable("Table 4 / " + bench.name + " (select by best " +
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
        "Reproduction of Table 4 (EDBT'25 MODis): T2-house, T4-mental\n");
  }
  modis::Status s =
      modis::bench::RunTask(opts, &records, modis::BenchTaskId::kHouse, 0.7,
                            "f1", /*surrogate=*/false);
  if (!s.ok()) std::fprintf(stderr, "T2 failed: %s\n", s.ToString().c_str());
  s = modis::bench::RunTask(opts, &records, modis::BenchTaskId::kMental,
                            0.35, "acc", /*surrogate=*/true);
  if (!s.ok()) std::fprintf(stderr, "T4 failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
