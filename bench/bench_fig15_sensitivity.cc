/// Reproduces Figure 15 (appendix) of the paper: sensitivity analysis on
/// T5 — the percentage change of the best ranking quality (p@5) relative to
/// the original graph, as maxl and ε vary.
///
/// Expected shape (paper): all MODis algorithms benefit from larger maxl
/// and smaller ε; sensitivity to maxl is stronger than to ε.
///
/// Flags: `--json` emits per-run records (metric `pct_change_p5`);
/// `--threads N` / `--record-cache PATH` are forwarded to every run.

#include <cstdio>

#include "bench/bench_util.h"

namespace modis::bench {
namespace {

constexpr Algo kAlgos[] = {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv};

struct PanelContext {
  const BenchOptions* opts;
  std::vector<RunRecord>* records;
};

struct Fixture {
  GraphBench bench;
  SearchUniverse universe;
  double original_p5 = 0.0;
};

Result<Fixture> MakeFixture() {
  MODIS_ASSIGN_OR_RETURN(GraphBench bench, MakeGraphBench(0.8));
  SearchUniverse::Options opts;
  opts.protected_attributes = {"user", "item"};
  opts.max_clusters = 4;
  MODIS_ASSIGN_OR_RETURN(SearchUniverse universe,
                         SearchUniverse::Build(bench.lake.edge_table, opts));
  auto evaluator = bench.MakeEvaluator();
  MODIS_ASSIGN_OR_RETURN(Evaluation original,
                         evaluator->Evaluate(bench.lake.edge_table));
  Fixture f{std::move(bench), std::move(universe), original.raw[0]};
  return f;
}

/// Percentage change of best p@5 vs the original graph; records the run.
Result<double> PercentChange(const PanelContext& ctx, Fixture* f, Algo algo,
                             const ModisConfig& config,
                             const std::string& panel,
                             const std::string& param, double param_value) {
  auto evaluator = f->bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  MODIS_ASSIGN_OR_RETURN(ModisResult result,
                         RunAlgo(algo, f->universe, &oracle, config));
  MODIS_ASSIGN_OR_RETURN(
      MethodReport report,
      ReportBestBy(AlgoName(algo), result, 0, f->universe, evaluator.get()));
  const double pct = 100.0 * (report.eval.raw[0] - f->original_p5) /
                     std::max(1e-9, f->original_p5);
  RunRecord rec =
      MakeRunRecord("fig15", panel, "T5", AlgoName(algo), param, param_value,
                    result, ResolvedThreads(*ctx.opts));
  rec.metric = "pct_change_p5";
  rec.metric_value = pct;
  ctx.records->push_back(std::move(rec));
  return pct;
}

Status Run(const PanelContext& ctx) {
  MODIS_ASSIGN_OR_RETURN(Fixture f, MakeFixture());
  const bool text = !ctx.opts->json;
  if (text) std::printf("original p@5 = %.4f\n", f.original_p5);

  if (text) {
    std::printf("\n== Figure 15(a) / T5: %% change of p@5 vs maxl "
                "(epsilon=0.2) ==\n");
    std::printf("%s", PadRight("maxl", 7).c_str());
    for (Algo a : kAlgos) {
      std::printf(" %s", PadRight(AlgoName(a), 11).c_str());
    }
    std::printf("\n");
  }
  for (int maxl = 2; maxl <= 4; ++maxl) {
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 45;
    config.max_level = maxl;
    ApplyBenchOptions(*ctx.opts, &config);
    if (text) std::printf("%s", PadRight(std::to_string(maxl), 7).c_str());
    for (Algo a : kAlgos) {
      auto pc = PercentChange(ctx, &f, a, config, "a", "maxl", double(maxl));
      if (text) {
        std::printf(" %s",
                    PadRight(pc.ok() ? FormatDouble(pc.value(), 2) + "%"
                                     : "-",
                             11)
                        .c_str());
      }
    }
    if (text) std::printf("\n");
  }

  if (text) {
    std::printf("\n== Figure 15(b) / T5: %% change of p@5 vs epsilon "
                "(maxl=3) ==\n");
    std::printf("%s", PadRight("eps", 7).c_str());
    for (Algo a : kAlgos) {
      std::printf(" %s", PadRight(AlgoName(a), 11).c_str());
    }
    std::printf("\n");
  }
  for (double eps : {0.1, 0.2, 0.3}) {
    ModisConfig config;
    config.epsilon = eps;
    config.max_states = 45;
    config.max_level = 3;
    ApplyBenchOptions(*ctx.opts, &config);
    if (text) std::printf("%s", PadRight(FormatDouble(eps, 1), 7).c_str());
    for (Algo a : kAlgos) {
      auto pc = PercentChange(ctx, &f, a, config, "b", "epsilon", eps);
      if (text) {
        std::printf(" %s",
                    PadRight(pc.ok() ? FormatDouble(pc.value(), 2) + "%"
                                     : "-",
                             11)
                        .c_str());
      }
    }
    if (text) std::printf("\n");
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
    std::printf("Reproduction of Figure 15 (EDBT'25 MODis): T5 sensitivity\n");
  }
  modis::Status s = modis::bench::Run(ctx);
  if (!s.ok()) std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
