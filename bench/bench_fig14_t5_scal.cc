/// Reproduces Figure 14 (appendix) of the paper: scalability of the MODis
/// algorithms on the T5 graph task, varying (a) the graph size (users /
/// items — our analogue of the attribute dimension after the paper's
/// feature aggregation) and (b) the active-domain size (edge clusters).
///
/// Expected shape (paper): bidirectional variants handle growth best;
/// ApxMODis slows fastest as the search space widens.
///
/// Flags: `--json` emits one record per run; `--threads N` /
/// `--record-cache PATH` are forwarded to every run. Note the graph
/// universes differ per sweep point, so the record cache only warms
/// repeated invocations of the same point, not the sweep itself.

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

constexpr Algo kAlgos[] = {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv};

void PrintHeader(const char* axis) {
  std::printf("%s", PadRight(axis, 11).c_str());
  for (Algo a : kAlgos) std::printf(" %s", PadRight(AlgoName(a), 11).c_str());
  std::printf("\n");
}

Status Run(const BenchOptions& bench_opts, std::vector<RunRecord>* records) {
  if (!bench_opts.json) {
    std::printf(
        "\n== Figure 14(a) / T5: discovery seconds vs graph scale ==\n");
    PrintHeader("#edges");
  }
  for (double scale : {0.4, 0.6, 0.8, 1.0}) {
    MODIS_ASSIGN_OR_RETURN(GraphBench bench, MakeGraphBench(scale));
    SearchUniverse::Options opts;
    opts.protected_attributes = {"user", "item"};
    opts.max_clusters = 4;
    MODIS_ASSIGN_OR_RETURN(SearchUniverse universe,
                           SearchUniverse::Build(bench.lake.edge_table, opts));
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 40;
    config.max_level = 3;
    ApplyBenchOptions(bench_opts, &config);
    const size_t edges = bench.lake.edge_table.num_rows();
    if (!bench_opts.json) {
      std::printf("%s", PadRight(std::to_string(edges), 11).c_str());
    }
    for (Algo a : kAlgos) {
      auto evaluator = bench.MakeEvaluator();
      PerformanceOracle oracle(evaluator.get());
      MODIS_ASSIGN_OR_RETURN(ModisResult result,
                             RunAlgo(a, universe, &oracle, config));
      records->push_back(MakeRunRecord("fig14", "a", "T5", AlgoName(a),
                                       "num_edges", double(edges), result,
                                       ResolvedThreads(bench_opts)));
      if (!bench_opts.json) {
        std::printf(" %s",
                    PadRight(FormatDouble(result.seconds, 3), 11).c_str());
      }
    }
    if (!bench_opts.json) std::printf("\n");
  }

  if (!bench_opts.json) {
    std::printf("\n== Figure 14(b) / T5: discovery seconds vs |adom| (edge "
                "clusters) ==\n");
    PrintHeader("|adom|");
  }
  for (int clusters : {3, 5, 8, 13}) {
    MODIS_ASSIGN_OR_RETURN(GraphBench bench, MakeGraphBench(0.8));
    SearchUniverse::Options opts;
    opts.protected_attributes = {"user", "item"};
    opts.max_clusters = clusters;
    MODIS_ASSIGN_OR_RETURN(SearchUniverse universe,
                           SearchUniverse::Build(bench.lake.edge_table, opts));
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 40;
    config.max_level = 3;
    ApplyBenchOptions(bench_opts, &config);
    if (!bench_opts.json) {
      std::printf("%s", PadRight(std::to_string(clusters), 11).c_str());
    }
    for (Algo a : kAlgos) {
      auto evaluator = bench.MakeEvaluator();
      PerformanceOracle oracle(evaluator.get());
      MODIS_ASSIGN_OR_RETURN(ModisResult result,
                             RunAlgo(a, universe, &oracle, config));
      records->push_back(MakeRunRecord("fig14", "b", "T5", AlgoName(a),
                                       "max_clusters", double(clusters),
                                       result,
                                       ResolvedThreads(bench_opts)));
      if (!bench_opts.json) {
        std::printf(" %s",
                    PadRight(FormatDouble(result.seconds, 3), 11).c_str());
      }
    }
    if (!bench_opts.json) std::printf("\n");
  }
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main(int argc, char** argv) {
  const modis::bench::BenchOptions opts =
      modis::bench::ParseBenchOptions(argc, argv);
  std::vector<modis::bench::RunRecord> records;
  if (!opts.json) {
    std::printf("Reproduction of Figure 14 (EDBT'25 MODis): T5 scalability\n");
  }
  modis::Status s = modis::bench::Run(opts, &records);
  if (!s.ok()) std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
