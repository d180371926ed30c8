#ifndef MODIS_BENCH_BENCH_UTIL_H_
#define MODIS_BENCH_BENCH_UTIL_H_

/// Shared scaffolding for the experiment-reproduction binaries: running the
/// four MODis algorithms over a wired bench task, selecting the reporting
/// table from a skyline (best *estimated* value of a chosen measure, then
/// actual model inference — the paper's Exp-1 protocol), fixed-width
/// table printing, and the --json record arrays.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "common/strings.h"
#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "service/json.h"

namespace modis::bench {

/// Command-line options shared by the experiment binaries:
///   --json              emit machine-readable per-run records (and only
///                       those)
///   --threads N         ModisConfig::num_threads for every run (0 =
///                       hardware concurrency; the default)
///   --record-cache P    cross-run persistent valuation-record log at path
///                       P (ModisConfig::record_cache_path): every run of
///                       the binary shares it, so variant/config sweeps
///                       only pay the exact training of each unique state
///                       once, and a re-run against the same file is a
///                       warm start (see docs/PERSISTENCE.md)
///   --cache-mode M      off | read | read_write (default read_write);
///                       only meaningful with --record-cache
///   --cache-max-bytes N byte budget of the record-cache log (0 =
///                       unbounded); over-budget logs evict least-
///                       recently-hit fingerprints at each flush
struct BenchOptions {
  bool json = false;
  size_t num_threads = 0;
  std::string record_cache;
  CacheMode cache_mode = CacheMode::kReadWrite;
  uint64_t cache_max_bytes = 0;
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions opts;
  auto parse_mode = [](const std::string& value) {
    const Result<CacheMode> mode = ParseCacheMode(value);
    if (!mode.ok()) {
      std::fprintf(stderr, "bad --cache-mode: %s\n",
                   mode.status().ToString().c_str());
      std::exit(2);
    }
    return mode.value();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      opts.num_threads = static_cast<size_t>(std::strtoull(
          argv[++i], nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.num_threads = static_cast<size_t>(std::strtoull(
          arg.c_str() + std::strlen("--threads="), nullptr, 10));
    } else if (arg == "--record-cache" && i + 1 < argc) {
      opts.record_cache = argv[++i];
    } else if (arg.rfind("--record-cache=", 0) == 0) {
      opts.record_cache = arg.substr(std::strlen("--record-cache="));
    } else if (arg == "--cache-mode" && i + 1 < argc) {
      opts.cache_mode = parse_mode(argv[++i]);
    } else if (arg.rfind("--cache-mode=", 0) == 0) {
      opts.cache_mode = parse_mode(arg.substr(std::strlen("--cache-mode=")));
    } else if (arg == "--cache-max-bytes" && i + 1 < argc) {
      opts.cache_max_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--cache-max-bytes=", 0) == 0) {
      opts.cache_max_bytes = std::strtoull(
          arg.c_str() + std::strlen("--cache-max-bytes="), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "unknown argument %s (supported: --json, --threads N, "
                   "--record-cache PATH, --cache-mode M, "
                   "--cache-max-bytes N)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

/// Applies the shared options to one run's config (threads + record
/// cache). Every bench builds its configs through this so a single
/// `--record-cache` flag warms the whole sweep.
inline void ApplyBenchOptions(const BenchOptions& opts, ModisConfig* config) {
  config->num_threads = opts.num_threads;
  config->record_cache_path = opts.record_cache;
  config->cache_mode = opts.cache_mode;
  config->record_cache_max_bytes = opts.cache_max_bytes;
}

/// The thread count a run effectively uses (resolves 0 = hardware).
inline size_t ResolvedThreads(const BenchOptions& opts) {
  if (opts.num_threads != 0) return opts.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// One machine-readable benchmark run — the record unit of --json mode.
struct RunRecord {
  std::string bench;    // Binary family, e.g. "fig10".
  std::string panel;    // Sub-experiment, e.g. "a".
  std::string task;     // Bench task, e.g. "T1".
  std::string variant;  // Algorithm / method name.
  std::string param;    // Swept knob name ("epsilon", "maxl", ...).
  double param_value = 0.0;
  double wall_ms = 0.0;
  size_t num_threads = 1;
  size_t exact_evals = 0;
  size_t surrogate_evals = 0;
  size_t cache_hits = 0;
  size_t persistent_hits = 0;  // Trainings avoided via --record-cache.
  size_t failed_evals = 0;
  size_t valuated_states = 0;
  size_t generated_states = 0;
  size_t pruned_states = 0;
  /// Optional reported quality metric of the run (e.g. "best_acc" for the
  /// effectiveness figures); empty name for pure efficiency records.
  std::string metric;
  double metric_value = 0.0;
};

/// Fraction of the run's would-be exact trainings served by the
/// persistent record cache (0 when the cache is off or nothing was
/// planned exact).
inline double WarmHitRate(const RunRecord& r) {
  const size_t planned = r.persistent_hits + r.exact_evals;
  return planned == 0 ? 0.0
                      : static_cast<double>(r.persistent_hits) /
                            static_cast<double>(planned);
}

/// Folds one engine run into a RunRecord (wall clock + valuation counts).
inline RunRecord MakeRunRecord(std::string bench_name, std::string panel,
                               std::string task, std::string variant,
                               std::string param, double param_value,
                               const ModisResult& result,
                               size_t num_threads) {
  RunRecord rec;
  rec.bench = std::move(bench_name);
  rec.panel = std::move(panel);
  rec.task = std::move(task);
  rec.variant = std::move(variant);
  rec.param = std::move(param);
  rec.param_value = param_value;
  rec.wall_ms = result.seconds * 1000.0;
  rec.num_threads = num_threads;
  rec.exact_evals = result.oracle_stats.exact_evals;
  rec.surrogate_evals = result.oracle_stats.surrogate_evals;
  rec.cache_hits = result.oracle_stats.cache_hits;
  rec.persistent_hits = result.oracle_stats.persistent_hits;
  rec.failed_evals = result.oracle_stats.failed_evals;
  rec.valuated_states = result.valuated_states;
  rec.generated_states = result.generated_states;
  rec.pruned_states = result.pruned_states;
  return rec;
}

inline JsonValue ToJson(const RunRecord& r) {
  JsonValue::Object doc = {
      {"bench", r.bench},
      {"panel", r.panel},
      {"task", r.task},
      {"variant", r.variant},
      {"param", r.param},
      {"param_value", r.param_value},
      {"wall_ms", r.wall_ms},
      {"num_threads", r.num_threads},
      {"exact_evals", r.exact_evals},
      {"surrogate_evals", r.surrogate_evals},
      {"cache_hits", r.cache_hits},
      {"persistent_hits", r.persistent_hits},
      {"warm_hit_rate", WarmHitRate(r)},
      {"failed_evals", r.failed_evals},
      {"valuated_states", r.valuated_states},
      {"generated_states", r.generated_states},
      {"pruned_states", r.pruned_states},
  };
  if (!r.metric.empty()) {
    doc.emplace_back("metric", r.metric);
    doc.emplace_back("metric_value", r.metric_value);
  }
  return doc;
}

/// Prints the records as one JSON array on stdout, one record per line so
/// diffs of committed outputs stay line-oriented. In --json mode this is
/// the binary's entire output, so downstream tooling can `json.load` it.
template <typename Record>
void PrintJsonRecords(const std::vector<Record>& records) {
  std::printf("[\n");
  for (size_t i = 0; i < records.size(); ++i) {
    std::printf("  %s%s\n", ToJson(records[i]).Dump().c_str(),
                i + 1 < records.size() ? "," : "");
  }
  std::printf("]\n");
}

/// Which MODis variant to run.
enum class Algo { kApx, kNoBi, kBi, kDiv };

inline const char* AlgoName(Algo a) {
  switch (a) {
    case Algo::kApx:
      return "ApxMODis";
    case Algo::kNoBi:
      return "NOBiMODis";
    case Algo::kBi:
      return "BiMODis";
    case Algo::kDiv:
      return "DivMODis";
  }
  return "?";
}

inline Result<ModisResult> RunAlgo(Algo algo, const SearchUniverse& universe,
                                   PerformanceOracle* oracle,
                                   const ModisConfig& config) {
  switch (algo) {
    case Algo::kApx:
      return RunApxModis(universe, oracle, config);
    case Algo::kNoBi:
      return RunNoBiModis(universe, oracle, config);
    case Algo::kBi:
      return RunBiModis(universe, oracle, config);
    case Algo::kDiv:
      return RunDivModis(universe, oracle, config);
  }
  return Status::Internal("unknown algorithm");
}

/// One reported method row: actual (exact) evaluation of the selected
/// dataset + its size + discovery time.
struct MethodReport {
  std::string name;
  Evaluation eval;
  size_t rows = 0;
  size_t cols = 0;
  double discovery_seconds = 0.0;
};

/// Index of measure `name` in the vector (aborts if absent).
inline size_t MeasureIndex(const std::vector<MeasureSpec>& measures,
                           const std::string& name) {
  for (size_t i = 0; i < measures.size(); ++i) {
    if (measures[i].name == name) return i;
  }
  std::fprintf(stderr, "no measure named %s\n", name.c_str());
  std::abort();
}

/// Machine-readable row of a method-comparison table (Tables 4/5/6, the
/// Figure 7 radar): one method's exact re-evaluation, raw values in
/// measure order. The --json shape of the report-style benches.
struct MethodRecord {
  std::string bench;
  std::string panel;
  std::string task;
  std::string variant;  // Method name (Original, METAM, ApxMODis, ...).
  std::vector<std::string> measure_names;
  std::vector<double> raw;  // Parallel to measure_names.
  size_t rows = 0;
  size_t cols = 0;
  double discovery_seconds = 0.0;
};

inline MethodRecord MakeMethodRecord(std::string bench_name,
                                     std::string panel, std::string task,
                                     const MethodReport& report,
                                     const std::vector<MeasureSpec>& specs) {
  MethodRecord rec;
  rec.bench = std::move(bench_name);
  rec.panel = std::move(panel);
  rec.task = std::move(task);
  rec.variant = report.name;
  for (const MeasureSpec& m : specs) rec.measure_names.push_back(m.name);
  rec.raw = report.eval.raw;
  rec.rows = report.rows;
  rec.cols = report.cols;
  rec.discovery_seconds = report.discovery_seconds;
  return rec;
}

/// Measures as a name->raw-value object.
inline JsonValue ToJson(const MethodRecord& r) {
  JsonValue::Object measures;
  const size_t n = std::min(r.measure_names.size(), r.raw.size());
  for (size_t j = 0; j < n; ++j) {
    measures.emplace_back(r.measure_names[j], r.raw[j]);
  }
  return JsonValue::Object{
      {"bench", r.bench},
      {"panel", r.panel},
      {"task", r.task},
      {"variant", r.variant},
      {"measures", std::move(measures)},
      {"rows", r.rows},
      {"cols", r.cols},
      {"discovery_seconds", r.discovery_seconds},
  };
}

/// Picks the skyline entry with the best (lowest normalized) estimated
/// value of `measure`, re-evaluates it exactly, and returns the report.
/// Returns nullopt for an empty skyline.
inline Result<MethodReport> ReportBestBy(const std::string& algo_name,
                                         const ModisResult& result,
                                         size_t measure,
                                         const SearchUniverse& universe,
                                         TaskEvaluator* evaluator) {
  if (result.skyline.empty()) {
    return Status::NotFound(algo_name + ": empty skyline");
  }
  const SkylineEntry* best = &result.skyline.front();
  for (const auto& e : result.skyline) {
    if (e.eval.normalized[measure] < best->eval.normalized[measure]) {
      best = &e;
    }
  }
  MethodReport report;
  report.name = algo_name;
  MODIS_ASSIGN_OR_RETURN(report.eval,
                         evaluator->Evaluate(universe.Materialize(best->state)));
  report.rows = best->rows;
  report.cols = best->cols;
  report.discovery_seconds = result.seconds;
  return report;
}

/// Runs all four MODis variants with fresh oracles and reports each (best
/// by `select_measure`). `surrogate` switches the search to the MO-GBM
/// estimator; reporting is always exact.
inline Result<std::vector<MethodReport>> RunAllModis(
    const TabularBench& bench, const SearchUniverse& universe,
    ModisConfig config, size_t select_measure, bool surrogate) {
  std::vector<MethodReport> reports;
  for (Algo algo : {Algo::kApx, Algo::kNoBi, Algo::kBi, Algo::kDiv}) {
    auto evaluator = bench.MakeEvaluator();
    std::optional<SurrogateOptions> surrogate_options;
    if (surrogate) surrogate_options.emplace();
    PerformanceOracle oracle(evaluator.get(), surrogate_options);
    MODIS_ASSIGN_OR_RETURN(ModisResult result,
                           RunAlgo(algo, universe, &oracle, config));
    auto report = ReportBestBy(AlgoName(algo), result, select_measure,
                               universe, evaluator.get());
    if (!report.ok()) continue;  // Empty skyline at tiny budgets.
    reports.push_back(std::move(report).value());
  }
  return reports;
}

/// Converts a BaselineResult into a MethodReport.
inline MethodReport FromBaseline(const BaselineResult& r) {
  MethodReport report;
  report.name = r.name;
  report.eval = r.eval;
  report.rows = r.dataset.num_rows();
  report.cols = r.dataset.num_cols();
  report.discovery_seconds = r.seconds;
  return report;
}

/// Prints a paper-style table: one row per measure, one column per method,
/// with the raw (natural-unit) values, then an output-size row.
inline void PrintMethodTable(const std::string& title,
                             const std::vector<MeasureSpec>& measures,
                             const std::vector<MethodReport>& methods) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%s", PadRight("measure", 12).c_str());
  for (const auto& m : methods) {
    std::printf(" %s", PadRight(m.name, 11).c_str());
  }
  std::printf("\n");
  for (size_t j = 0; j < measures.size(); ++j) {
    std::printf("%s", PadRight(measures[j].name, 12).c_str());
    for (const auto& m : methods) {
      std::printf(" %s", PadRight(FormatDouble(m.eval.raw[j], 4), 11).c_str());
    }
    std::printf("\n");
  }
  std::printf("%s", PadRight("size (r,c)", 12).c_str());
  for (const auto& m : methods) {
    std::printf(" %s",
                PadRight("(" + std::to_string(m.rows) + "," +
                             std::to_string(m.cols) + ")",
                         11)
                    .c_str());
  }
  std::printf("\n%s", PadRight("disc. sec", 12).c_str());
  for (const auto& m : methods) {
    std::printf(" %s",
                PadRight(FormatDouble(m.discovery_seconds, 2), 11).c_str());
  }
  std::printf("\n");
}

/// rImp(p) = M(D_M).p / M(D_o).p over normalized values (both minimized),
/// so larger is better (§6 "Evaluation metrics").
inline double RelativeImprovement(const Evaluation& original,
                                  const Evaluation& output, size_t measure) {
  const double denom = output.normalized[measure];
  if (denom <= 0.0) return 0.0;
  return original.normalized[measure] / denom;
}

}  // namespace modis::bench

#endif  // MODIS_BENCH_BENCH_UTIL_H_
