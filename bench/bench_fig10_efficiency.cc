/// Reproduces Figure 10 of the paper: efficiency and scalability of the
/// MODis algorithms on tabular tasks.
///  (a) T1 discovery time vs ε (maxl fixed) — bidirectional variants get
///      faster with larger ε (more pruning chances); ApxMODis insensitive.
///  (b) T1 discovery time vs maxl (ε fixed) — all grow with maxl;
///      ApxMODis grows fastest; BiMODis mitigates via pruning.
///  (c) time vs number of attributes |A| (extra noisy tables).
///  (d) time vs active-domain size |adom| (cluster budget).
///
/// Flags: `--json` switches the output to one machine-readable JSON array
/// of per-run records (see bench/baselines/README.md for the comparison
/// protocol); `--threads N` sets ModisConfig::num_threads for every run
/// (0 = hardware concurrency); `--record-cache PATH` shares one
/// persistent valuation-record log across all 72 runs, so the sweeps only
/// train each unique state once and a second invocation against the same
/// file is a warm start (`persistent_hits` / `warm_hit_rate` in the JSON
/// records; the skyline is identical to a cold run).

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

constexpr Algo kAlgos[] = {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv};

struct PanelContext {
  const BenchOptions* opts;
  std::vector<RunRecord>* records;
};

Result<ModisResult> RunOne(const TabularBench& bench,
                           const SearchUniverse& universe, Algo algo,
                           const ModisConfig& config) {
  auto evaluator = bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get(), SurrogateOptions{});
  return RunAlgo(algo, universe, &oracle, config);
}

void PrintRow(const std::string& label, const std::vector<double>& seconds) {
  std::printf("%s", PadRight(label, 9).c_str());
  for (double s : seconds) {
    std::printf(" %s", PadRight(FormatDouble(s, 3), 11).c_str());
  }
  std::printf("\n");
}

void PrintHeader(const char* axis) {
  std::printf("%s", PadRight(axis, 9).c_str());
  for (Algo a : kAlgos) std::printf(" %s", PadRight(AlgoName(a), 11).c_str());
  std::printf("\n");
}

/// Runs all four variants for one swept config value and reports them both
/// as a human table row and as JSON records.
Status SweepPoint(const PanelContext& ctx, const TabularBench& bench,
                  const SearchUniverse& universe, ModisConfig config,
                  const std::string& panel, const std::string& param,
                  double param_value, const std::string& row_label) {
  ApplyBenchOptions(*ctx.opts, &config);
  std::vector<double> row;
  for (Algo a : kAlgos) {
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunOne(bench, universe, a, config));
    row.push_back(result.seconds);
    ctx.records->push_back(MakeRunRecord(
        "fig10", panel, "T1", AlgoName(a), param, param_value, result,
        ResolvedThreads(*ctx.opts)));
  }
  if (!ctx.opts->json) PrintRow(row_label, row);
  return Status::OK();
}

Status PanelA(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kMovie, 0.3));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  if (!ctx.opts->json) {
    std::printf("\n== Figure 10(a) / T1: discovery seconds vs epsilon "
                "(maxl=4) ==\n");
    PrintHeader("epsilon");
  }
  for (double eps : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    ModisConfig config;
    config.epsilon = eps;
    config.max_states = 140;
    config.max_level = 4;
    MODIS_RETURN_IF_ERROR(SweepPoint(ctx, bench, universe, config, "a",
                                     "epsilon", eps, FormatDouble(eps, 1)));
  }
  return Status::OK();
}

Status PanelB(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kMovie, 0.3));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  if (!ctx.opts->json) {
    std::printf("\n== Figure 10(b) / T1: discovery seconds vs maxl "
                "(epsilon=0.2) ==\n");
    PrintHeader("maxl");
  }
  for (int maxl = 2; maxl <= 6; ++maxl) {
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 140;
    config.max_level = maxl;
    MODIS_RETURN_IF_ERROR(SweepPoint(ctx, bench, universe, config, "b",
                                     "maxl", maxl, std::to_string(maxl)));
  }
  return Status::OK();
}

Status PanelC(const PanelContext& ctx) {
  if (!ctx.opts->json) {
    std::printf("\n== Figure 10(c) / T1: discovery seconds vs #attributes "
                "(extra noisy tables) ==\n");
    PrintHeader("|A|");
  }
  for (int extra : {0, 2, 4, 6}) {
    MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                           MakeTabularBench(BenchTaskId::kMovie, 0.25, extra));
    MODIS_ASSIGN_OR_RETURN(
        SearchUniverse universe,
        SearchUniverse::Build(bench.universal, bench.universe_options));
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 120;
    config.max_level = 3;
    const double attrs = static_cast<double>(bench.universal.num_cols());
    MODIS_RETURN_IF_ERROR(
        SweepPoint(ctx, bench, universe, config, "c", "num_attributes",
                   attrs, std::to_string(bench.universal.num_cols())));
  }
  return Status::OK();
}

Status PanelD(const PanelContext& ctx) {
  if (!ctx.opts->json) {
    std::printf("\n== Figure 10(d) / T1: discovery seconds vs |adom| "
                "(cluster budget per attribute) ==\n");
    PrintHeader("|adom|");
  }
  for (int clusters : {3, 5, 8, 12}) {
    MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                           MakeTabularBench(BenchTaskId::kMovie, 0.25));
    SearchUniverse::Options opts = bench.universe_options;
    opts.max_clusters = clusters;
    MODIS_ASSIGN_OR_RETURN(SearchUniverse universe,
                           SearchUniverse::Build(bench.universal, opts));
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 120;
    config.max_level = 3;
    MODIS_RETURN_IF_ERROR(SweepPoint(ctx, bench, universe, config, "d",
                                     "max_clusters", clusters,
                                     std::to_string(clusters)));
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
    std::printf("Reproduction of Figure 10 (EDBT'25 MODis): efficiency & "
                "scalability\n");
  }
  for (auto* panel : {modis::bench::PanelA, modis::bench::PanelB,
                      modis::bench::PanelC, modis::bench::PanelD}) {
    modis::Status s = panel(ctx);
    if (!s.ok()) std::fprintf(stderr, "panel failed: %s\n",
                              s.ToString().c_str());
  }
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
