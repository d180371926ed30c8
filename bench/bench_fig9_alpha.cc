/// Reproduces Figure 9 of the paper: the impact of α on DivMODis.
///  (a) Performance diversity: the distribution (min / mean / median / max /
///      std) of the skyline datasets' accuracy for α in {0.2, 0.5, 0.8} —
///      smaller α (performance-weighted distance) widens the accuracy
///      spread; larger α narrows it toward high-accuracy sets.
///  (b) Content diversity: per-attribute contribution percentages of the
///      skyline (how often each attribute appears), and their standard
///      deviation — larger α distributes contributions more evenly
///      (decreasing std).
///
/// Flags: `--json` emits two per-alpha records (metric `acc_std`, the
/// accuracy spread of the diversified skyline, and `contribution_std_pct`,
/// the attribute-contribution spread); `--threads N` / `--record-cache
/// PATH` are forwarded to every run.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stats.h"

namespace modis::bench {
namespace {

Status Run(const BenchOptions& opts, std::vector<RunRecord>* records) {
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(BenchTaskId::kHouse, 0.6));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  const size_t acc = MeasureIndex(bench.task.measures, "acc");
  const auto& layout = universe.layout();

  if (!opts.json) {
    std::printf("\n== Figure 9(a): accuracy distribution of the diversified "
                "skyline vs alpha ==\n");
    std::printf("%s %s %s %s %s %s %s\n", PadRight("alpha", 7).c_str(),
                PadRight("k", 3).c_str(), PadRight("min", 8).c_str(),
                PadRight("mean", 8).c_str(), PadRight("median", 8).c_str(),
                PadRight("max", 8).c_str(), PadRight("std", 8).c_str());
  }

  struct AlphaRun {
    double alpha;
    std::vector<double> attr_contribution;
  };
  std::vector<AlphaRun> runs;

  for (double alpha : {0.2, 0.5, 0.8}) {
    ModisConfig config;
    config.epsilon = 0.2;
    config.max_states = 160;
    config.max_level = 4;
    config.diversify_k = 6;
    config.alpha = alpha;
    ApplyBenchOptions(opts, &config);

    auto evaluator = bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunDivModis(universe, &oracle, config));
    std::vector<double> accs;
    std::vector<double> contribution(layout.num_attributes(), 0.0);
    for (const auto& e : result.skyline) {
      MODIS_ASSIGN_OR_RETURN(Evaluation exact,
                             evaluator->Evaluate(universe.Materialize(e.state)));
      accs.push_back(exact.raw[acc]);
      for (size_t a = 0; a < layout.num_attributes(); ++a) {
        if (e.state.Get(a)) contribution[a] += 1.0;
      }
    }
    if (accs.empty()) continue;
    for (double& c : contribution) {
      c = 100.0 * c / static_cast<double>(result.skyline.size());
    }
    std::vector<double> sorted = accs;
    std::sort(sorted.begin(), sorted.end());
    if (!opts.json) {
      std::printf(
          "%s %s %s %s %s %s %s\n", PadRight(FormatDouble(alpha, 1), 7).c_str(),
          PadRight(std::to_string(accs.size()), 3).c_str(),
          PadRight(FormatDouble(sorted.front(), 4), 8).c_str(),
          PadRight(FormatDouble(Mean(accs), 4), 8).c_str(),
          PadRight(FormatDouble(sorted[sorted.size() / 2], 4), 8).c_str(),
          PadRight(FormatDouble(sorted.back(), 4), 8).c_str(),
          PadRight(FormatDouble(StdDev(accs), 4), 8).c_str());
    }
    RunRecord rec = MakeRunRecord("fig9", "a", "T2", "DivMODis", "alpha",
                                  alpha, result, ResolvedThreads(opts));
    rec.metric = "acc_std";
    rec.metric_value = StdDev(accs);
    records->push_back(rec);
    rec.panel = "b";
    rec.metric = "contribution_std_pct";
    rec.metric_value = StdDev(contribution);
    records->push_back(std::move(rec));
    runs.push_back({alpha, std::move(contribution)});
  }

  if (opts.json) return Status::OK();

  std::printf("\n== Figure 9(b): attribute contribution heatmap (%% of "
              "skyline tables containing each attribute) ==\n");
  std::printf("%s", PadRight("attribute", 14).c_str());
  for (const auto& run : runs) {
    std::printf(" a=%s", PadRight(FormatDouble(run.alpha, 1), 6).c_str());
  }
  std::printf("\n");
  for (size_t a = 0; a < layout.num_attributes(); ++a) {
    std::printf("%s", PadRight(layout.attributes[a], 14).c_str());
    for (const auto& run : runs) {
      std::printf(" %s",
                  PadRight(FormatDouble(run.attr_contribution[a], 1), 8)
                      .c_str());
    }
    std::printf("\n");
  }
  std::printf("%s", PadRight("std-dev", 14).c_str());
  for (const auto& run : runs) {
    std::printf(" %s",
                PadRight(FormatDouble(StdDev(run.attr_contribution), 1), 8)
                    .c_str());
  }
  std::printf("  <- expected to decrease as alpha grows\n");
  return Status::OK();
}

}  // namespace
}  // namespace modis::bench

int main(int argc, char** argv) {
  const modis::bench::BenchOptions opts =
      modis::bench::ParseBenchOptions(argc, argv);
  std::vector<modis::bench::RunRecord> records;
  if (!opts.json) {
    std::printf("Reproduction of Figure 9 (EDBT'25 MODis): DivMODis alpha "
                "sweep\n");
  }
  modis::Status s = modis::bench::Run(opts, &records);
  if (!s.ok()) std::fprintf(stderr, "failed: %s\n", s.ToString().c_str());
  if (opts.json) modis::bench::PrintJsonRecords(records);
  return 0;
}
