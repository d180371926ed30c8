/// Reproduces Figure 13 (appendix) of the paper: efficiency of the MODis
/// algorithms on T5 (graph link regression) and T3 (avocado regression),
/// sweeping ε and maxl.
///
/// Expected shape (paper): bidirectional variants (BiMODis / NOBiMODis /
/// DivMODis) consistently beat ApxMODis in discovery time; BiMODis is the
/// fastest across settings.
///
/// Flags: `--json` emits one record per run; `--threads N` /
/// `--record-cache PATH` are forwarded to every run.

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

constexpr Algo kAlgos[] = {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv};

struct PanelContext {
  const BenchOptions* opts;
  std::vector<RunRecord>* records;
};

void PrintHeader(const char* axis) {
  std::printf("%s", PadRight(axis, 9).c_str());
  for (Algo a : kAlgos) std::printf(" %s", PadRight(AlgoName(a), 11).c_str());
  std::printf("\n");
}

void PrintRow(const std::string& label, const std::vector<double>& seconds) {
  std::printf("%s", PadRight(label, 9).c_str());
  for (double s : seconds) {
    std::printf(" %s", PadRight(FormatDouble(s, 3), 11).c_str());
  }
  std::printf("\n");
}

Status GraphSweeps(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(GraphBench bench, MakeGraphBench(0.8));
  SearchUniverse::Options opts;
  opts.protected_attributes = {"user", "item"};
  opts.max_clusters = 4;
  MODIS_ASSIGN_OR_RETURN(SearchUniverse universe,
                         SearchUniverse::Build(bench.lake.edge_table, opts));

  auto time_one = [&](Algo algo, const ModisConfig& config,
                      const std::string& panel, const std::string& param,
                      double param_value) -> Result<double> {
    auto evaluator = bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunAlgo(algo, universe, &oracle, config));
    ctx.records->push_back(MakeRunRecord("fig13", panel, "T5",
                                         AlgoName(algo), param, param_value,
                                         result,
                                         ResolvedThreads(*ctx.opts)));
    return result.seconds;
  };

  if (!ctx.opts->json) {
    std::printf("\n== Figure 13(a) / T5: discovery seconds vs epsilon "
                "(maxl=3) ==\n");
    PrintHeader("epsilon");
  }
  for (double eps : {0.1, 0.2, 0.3, 0.4}) {
    ModisConfig config;
    config.epsilon = eps;
    config.max_states = 50;
    config.max_level = 3;
    ApplyBenchOptions(*ctx.opts, &config);
    std::vector<double> row;
    for (Algo a : kAlgos) {
      MODIS_ASSIGN_OR_RETURN(double t,
                             time_one(a, config, "a", "epsilon", eps));
      row.push_back(t);
    }
    if (!ctx.opts->json) PrintRow(FormatDouble(eps, 1), row);
  }

  if (!ctx.opts->json) {
    std::printf("\n== Figure 13(b) / T5: discovery seconds vs maxl "
                "(epsilon=0.2) ==\n");
    PrintHeader("maxl");
  }
  for (int maxl = 2; maxl <= 5; ++maxl) {
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 50;
    config.max_level = maxl;
    ApplyBenchOptions(*ctx.opts, &config);
    std::vector<double> row;
    for (Algo a : kAlgos) {
      MODIS_ASSIGN_OR_RETURN(
          double t, time_one(a, config, "b", "maxl", double(maxl)));
      row.push_back(t);
    }
    if (!ctx.opts->json) PrintRow(std::to_string(maxl), row);
  }
  return Status::OK();
}

Status AvocadoSweeps(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kAvocado, 0.3));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));

  auto time_one = [&](Algo algo, const ModisConfig& config,
                      const std::string& panel, const std::string& param,
                      double param_value) -> Result<double> {
    auto evaluator = bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get(), SurrogateOptions{});
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunAlgo(algo, universe, &oracle, config));
    ctx.records->push_back(MakeRunRecord("fig13", panel, "T3",
                                         AlgoName(algo), param, param_value,
                                         result,
                                         ResolvedThreads(*ctx.opts)));
    return result.seconds;
  };

  if (!ctx.opts->json) {
    std::printf("\n== Figure 13(c) / T3: discovery seconds vs epsilon "
                "(maxl=4) ==\n");
    PrintHeader("epsilon");
  }
  for (double eps : {0.1, 0.2, 0.3, 0.4}) {
    ModisConfig config;
    config.epsilon = eps;
    config.max_states = 120;
    config.max_level = 4;
    ApplyBenchOptions(*ctx.opts, &config);
    std::vector<double> row;
    for (Algo a : kAlgos) {
      MODIS_ASSIGN_OR_RETURN(double t,
                             time_one(a, config, "c", "epsilon", eps));
      row.push_back(t);
    }
    if (!ctx.opts->json) PrintRow(FormatDouble(eps, 1), row);
  }

  if (!ctx.opts->json) {
    std::printf("\n== Figure 13(d) / T3: discovery seconds vs maxl "
                "(epsilon=0.1) ==\n");
    PrintHeader("maxl");
  }
  for (int maxl = 2; maxl <= 5; ++maxl) {
    ModisConfig config;
    config.epsilon = 0.1;
    config.max_states = 120;
    config.max_level = maxl;
    ApplyBenchOptions(*ctx.opts, &config);
    std::vector<double> row;
    for (Algo a : kAlgos) {
      MODIS_ASSIGN_OR_RETURN(
          double t, time_one(a, config, "d", "maxl", double(maxl)));
      row.push_back(t);
    }
    if (!ctx.opts->json) PrintRow(std::to_string(maxl), row);
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
    std::printf("Reproduction of Figure 13 (EDBT'25 MODis): T5 and T3 "
                "efficiency\n");
  }
  modis::Status s = modis::bench::GraphSweeps(ctx);
  if (!s.ok()) std::fprintf(stderr, "T5 failed: %s\n", s.ToString().c_str());
  s = modis::bench::AvocadoSweeps(ctx);
  if (!s.ok()) std::fprintf(stderr, "T3 failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
