/// Reproduces Table 5 of the paper: MODis variants on the T5 link
/// regression task (LightGCN-lite over a bipartite interaction graph).
/// Augment/Reduct are edge insertions/deletions on the edge table.
///
/// Expected shape (paper): all MODis variants improve P@5/P@10, R@5/R@10,
/// NDCG@5/NDCG@10 over the original graph; BiMODis/ApxMODis lead, and the
/// output graphs are substantially smaller (noise edges removed).
///
/// Flags: `--json` emits one MethodRecord per method instead of the
/// table; `--threads N` / `--record-cache PATH` are forwarded to the
/// MODis runs.

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

Status Run(const BenchOptions& bench_opts) {
  MODIS_ASSIGN_OR_RETURN(GraphBench bench, MakeGraphBench(1.0));
  auto evaluator = bench.MakeEvaluator();

  SearchUniverse::Options opts;
  opts.protected_attributes = {"user", "item"};
  opts.max_clusters = 4;
  MODIS_ASSIGN_OR_RETURN(SearchUniverse universe,
                         SearchUniverse::Build(bench.lake.edge_table, opts));

  std::vector<MethodReport> methods;
  // Original graph.
  {
    MethodReport original;
    original.name = "Original";
    MODIS_ASSIGN_OR_RETURN(original.eval,
                           evaluator->Evaluate(bench.lake.edge_table));
    original.rows = bench.lake.edge_table.num_rows();
    original.cols = bench.lake.edge_table.num_cols();
    methods.push_back(std::move(original));
  }

  ModisConfig config;
  config.epsilon = 0.15;
  config.max_states = 70;
  config.max_level = 4;
  ApplyBenchOptions(bench_opts, &config);
  const size_t p5 = MeasureIndex(bench.task.measures, "p@5");
  for (Algo algo : {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv}) {
    auto eval = bench.MakeEvaluator();
    PerformanceOracle oracle(eval.get());
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunAlgo(algo, universe, &oracle, config));
    auto report =
        ReportBestBy(AlgoName(algo), result, p5, universe, eval.get());
    if (report.ok()) methods.push_back(std::move(report).value());
  }

  if (bench_opts.json) {
    std::vector<MethodRecord> records;
    for (const MethodReport& m : methods) {
      records.push_back(
          MakeMethodRecord("table5", "", "T5", m, bench.task.measures));
    }
    PrintJsonRecords(records);
    return Status::OK();
  }
  PrintMethodTable("Table 5 / T5 link regression (select by best p@5)",
                   bench.task.measures, methods);
  std::printf(
      "note: size row = (#edges, #edge-table columns); the original graph "
      "carries the injected cross-community noise edges.\n");
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main(int argc, char** argv) {
  const modis::bench::BenchOptions opts =
      modis::bench::ParseBenchOptions(argc, argv);
  if (!opts.json) {
    std::printf("Reproduction of Table 5 (EDBT'25 MODis): T5 graph task\n");
  }
  modis::Status s = modis::bench::Run(opts);
  if (!s.ok()) std::fprintf(stderr, "T5 failed: %s\n", s.ToString().c_str());
  return 0;
}
