/// modis_cli — command-line skyline data discovery over CSV files, and
/// the client of a running modis_server.
///
/// Local usage:
///   modis_cli --dir <path> --key <col> --target <col>
///             [--task regression|classification]
///             [--algo apx|nobi|bi|div] [--epsilon 0.2] [--budget 150]
///             [--maxl 4] [--k 5] [--out <dir>]
///             [--record-cache <file>] [--cache-mode off|read|read_write]
///
/// Loads every *.csv in <dir> as a source table, builds the universal
/// table by full outer joins on <key>, runs the chosen MODis algorithm
/// with measures {headline accuracy/error, training time}, and writes the
/// skyline datasets as skyline_<i>.csv into <out> (default: <dir>).
///
/// `--record-cache` is the warm-start demo: the first run trains every
/// valuated state and records it in the given log file; re-running the
/// same command (or another --algo over the same lake) replays those
/// records instead of re-training — the hit/train counters are printed
/// after the run. See docs/PERSISTENCE.md.
///
/// A self-contained demo lake is generated when --dir is omitted.
///
/// Client usage (docs/SERVING.md):
///   modis_cli --connect <endpoint> --bench-task T1
///             [--algo bi] [--oracle exact|gbm] [--epsilon ..]
///             [--budget ..] [--maxl ..] [--k ..] [--alpha ..]
///             [--measures acc,fisher,mi] [--record-cache <file>]
///             [--cache-mode M] [--namespace NS] [--seed N] [--raw]
///             [--api-key KEY]
///   modis_cli --connect <endpoint> --metrics
///
/// <endpoint> is a unix socket path, "unix:PATH", "HOST:PORT", or
/// "tcp:HOST:PORT" (src/service/transport.h). The first form POSTs one
/// discovery request to /v1/query of the modis_server listening there and
/// prints the answer (the raw response JSON body with --raw — the shape
/// scripts/serving_smoke.sh diffs); --metrics prints the host's GET
/// /metrics Prometheus exposition instead.
///
/// A numeric flag whose value is not a number within its range is
/// reported and the binary exits 2.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common/flags.h"
#include "core/algorithms.h"
#include "datagen/data_lake.h"
#include "estimator/supervised_evaluator.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "ops/operators.h"
#include "service/http.h"
#include "service/transport.h"
#include "service/wire.h"
#include "table/csv.h"

namespace fs = std::filesystem;
using namespace modis;

namespace {

struct Args {
  std::string dir;
  std::string out;
  std::string key = "id";
  std::string target = "target";
  std::string task = "regression";
  std::string algo = "bi";
  double epsilon = 0.2;
  size_t budget = 150;
  int maxl = 4;
  size_t k = 5;
  std::string record_cache;
  std::string cache_mode = "read_write";
  // Client mode.
  std::string connect;
  std::string bench_task;
  std::string oracle = "exact";
  std::string measures;  // Comma-separated.
  double alpha = 0.5;
  std::string cache_namespace;
  /// Tenant credential of a QoS-enabled host (docs/SERVING.md §7); the
  /// server maps it to a token bucket, quota, and priority.
  std::string api_key;
  uint64_t seed = 1;
  bool raw = false;
  bool metrics = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string*> str_flags{
      {"--dir", &args->dir},     {"--out", &args->out},
      {"--key", &args->key},     {"--target", &args->target},
      {"--task", &args->task},   {"--algo", &args->algo},
      {"--record-cache", &args->record_cache},
      {"--cache-mode", &args->cache_mode},
      {"--connect", &args->connect},
      {"--bench-task", &args->bench_task},
      {"--oracle", &args->oracle},
      {"--measures", &args->measures},
      {"--namespace", &args->cache_namespace},
      {"--api-key", &args->api_key},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--raw") {  // Zero-operand flags.
      args->raw = true;
      continue;
    }
    if (flag == "--metrics") {
      args->metrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    // Numeric operands: the same ranges the server's request decoder
    // enforces (service/wire.cc).
    bool ok = true;
    if (auto it = str_flags.find(flag); it != str_flags.end()) {
      *it->second = value;
    } else if (flag == "--epsilon") {
      ok = ParseNumericFlag(flag, value, 1e-9, 100.0, &args->epsilon);
    } else if (flag == "--budget") {
      ok = ParseNumericFlag(flag, value, size_t{0}, size_t{100'000'000},
                            &args->budget);
    } else if (flag == "--maxl") {
      ok = ParseNumericFlag(flag, value, 0, 100'000, &args->maxl);
    } else if (flag == "--k") {
      ok = ParseNumericFlag(flag, value, size_t{0}, size_t{100'000'000},
                            &args->k);
    } else if (flag == "--alpha") {
      ok = ParseNumericFlag(flag, value, 0.0, 1.0, &args->alpha);
    } else if (flag == "--seed") {
      ok = ParseNumericFlag(flag, value, uint64_t{0}, uint64_t{1} << 53,
                            &args->seed);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

/// Sends one request to a modis_server endpoint (unix or TCP) and prints
/// the response: the raw body with --raw or --metrics, a human summary
/// otherwise.
Status RunConnect(const Args& args) {
  MODIS_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(args.connect));

  if (args.metrics) {
    MODIS_ASSIGN_OR_RETURN(HttpReply reply,
                           HttpExchange(endpoint, "GET", "/metrics"));
    if (reply.status != 200) {
      return Status::IoError("GET /metrics answered " +
                             std::to_string(reply.status));
    }
    std::fputs(reply.body.c_str(), stdout);
    return Status::OK();
  }

  if (args.bench_task.empty()) {
    return Status::InvalidArgument("--connect needs --bench-task (T1..T4)");
  }
  DiscoveryRequest request;
  request.task = args.bench_task;
  request.variant = args.algo;
  request.oracle = args.oracle;
  request.epsilon = args.epsilon;
  request.budget = args.budget;
  request.maxl = args.maxl;
  request.k = args.k;
  request.alpha = args.alpha;
  request.cache_path = args.record_cache;
  request.cache_mode = args.cache_mode;
  request.cache_namespace = args.cache_namespace;
  request.api_key = args.api_key;
  request.seed = args.seed;
  size_t start = 0;
  while (start <= args.measures.size() && !args.measures.empty()) {
    const size_t comma = args.measures.find(',', start);
    const std::string name =
        args.measures.substr(start, comma == std::string::npos
                                        ? std::string::npos
                                        : comma - start);
    if (!name.empty()) request.measures.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }

  MODIS_ASSIGN_OR_RETURN(HttpReply reply,
                         HttpExchange(endpoint, "POST", "/v1/query",
                                      SerializeDiscoveryRequest(request)));

  if (args.raw) {
    std::fputs(reply.body.c_str(), stdout);  // One JSON document + '\n'.
    return Status::OK();
  }
  MODIS_ASSIGN_OR_RETURN(DiscoveryResponse response,
                         ParseDiscoveryResponse(reply.body));
  std::printf("%s %s: skyline size %zu (valuated %zu, queue %.1f ms, run "
              "%.1f ms)\n",
              response.task.c_str(), response.variant.c_str(),
              response.skyline.size(), response.valuated_states,
              response.queue_ms, response.run_ms);
  std::printf("trainings: %zu fresh, %zu replayed from the warm cache, "
              "%zu surrogate\n",
              response.exact_evals, response.persistent_hits,
              response.surrogate_evals);
  for (const DiscoverySkylineRow& row : response.skyline) {
    std::printf("  %s (level %d, %zux%zu):", row.signature.c_str(),
                row.level, row.rows, row.cols);
    for (size_t j = 0;
         j < row.raw.size() && j < response.measure_names.size(); ++j) {
      std::printf(" %s=%.4f", response.measure_names[j].c_str(),
                  row.raw[j]);
    }
    std::printf("\n");
  }
  return Status::OK();
}

/// Writes a demo lake when no --dir was given, so the CLI is runnable
/// standalone.
Status PrepareDemoLake(Args* args) {
  const fs::path dir = fs::temp_directory_path() / "modis_cli_demo";
  fs::create_directories(dir);
  DataLakeSpec spec;
  spec.num_rows = 800;
  spec.num_tables = 3;
  spec.seed = 21;
  MODIS_ASSIGN_OR_RETURN(DataLake lake, GenerateDataLake(spec));
  for (size_t t = 0; t < lake.tables.size(); ++t) {
    MODIS_RETURN_IF_ERROR(WriteCsvFile(
        lake.tables[t], (dir / ("table_" + std::to_string(t) + ".csv"))
                            .string()));
  }
  args->dir = dir.string();
  std::printf("no --dir given; demo lake written to %s\n", dir.c_str());
  return Status::OK();
}

Status Run(Args args) {
  if (!args.connect.empty()) {
    return RunConnect(args);
  }
  if (args.metrics) {
    return Status::InvalidArgument(
        "--metrics needs --connect <endpoint> (it asks a running "
        "modis_server for its counters)");
  }
  if (args.dir.empty()) {
    MODIS_RETURN_IF_ERROR(PrepareDemoLake(&args));
  }
  if (args.out.empty()) args.out = args.dir;

  std::vector<Table> sources;
  for (const auto& entry : fs::directory_iterator(args.dir)) {
    if (entry.path().extension() != ".csv") continue;
    if (entry.path().filename().string().rfind("skyline_", 0) == 0) continue;
    MODIS_ASSIGN_OR_RETURN(Table table, ReadCsvFile(entry.path().string()));
    sources.push_back(std::move(table));
  }
  if (sources.empty()) {
    return Status::NotFound("no CSV files in " + args.dir);
  }
  MODIS_ASSIGN_OR_RETURN(Table universal,
                         BuildUniversalTable(sources, args.key));
  std::printf("universal table: %zu x %zu\n", universal.num_rows(),
              universal.num_cols());

  const bool regression = args.task == "regression";
  SupervisedTask task;
  task.target = args.target;
  task.task = regression ? TaskKind::kRegression : TaskKind::kClassification;
  task.exclude = {args.key};
  task.measures =
      regression
          ? std::vector<MeasureSpec>{MeasureSpec::Minimize("mse", 4.0),
                                     MeasureSpec::Minimize("train_time", 1.0)}
          : std::vector<MeasureSpec>{MeasureSpec::Maximize("acc"),
                                     MeasureSpec::Maximize("f1"),
                                     MeasureSpec::Minimize("train_time", 1.0)};
  std::unique_ptr<MlModel> model;
  if (regression) {
    model = std::make_unique<GradientBoostingRegressor>(
        GbmOptions{.num_rounds = 30});
  } else {
    model = std::make_unique<RandomForestClassifier>();
  }
  SupervisedEvaluator evaluator(task, std::move(model));

  SearchUniverse::Options opts;
  opts.protected_attributes = {args.target, args.key};
  MODIS_ASSIGN_OR_RETURN(SearchUniverse universe,
                         SearchUniverse::Build(universal, opts));

  PerformanceOracle oracle(&evaluator);
  ModisConfig config;
  config.epsilon = args.epsilon;
  config.max_states = args.budget;
  config.max_level = args.maxl;
  config.diversify_k = args.k;
  config.record_cache_path = args.record_cache;
  MODIS_ASSIGN_OR_RETURN(config.cache_mode,
                         ParseCacheMode(args.cache_mode));

  Result<ModisResult> result = Status::Internal("unset");
  if (args.algo == "apx") {
    result = RunApxModis(universe, &oracle, config);
  } else if (args.algo == "nobi") {
    result = RunNoBiModis(universe, &oracle, config);
  } else if (args.algo == "bi") {
    result = RunBiModis(universe, &oracle, config);
  } else if (args.algo == "div") {
    result = RunDivModis(universe, &oracle, config);
  } else {
    return Status::InvalidArgument("unknown --algo " + args.algo);
  }
  MODIS_RETURN_IF_ERROR(result.status());

  std::printf("%s: valuated %zu states in %.2f s; skyline size %zu\n",
              args.algo.c_str(), result->valuated_states, result->seconds,
              result->skyline.size());
  if (!args.record_cache.empty() && !result->record_cache_active) {
    // Off by --cache-mode, or the open failed (the engine already warned
    // on stderr): make clear the run was cold rather than printing
    // all-zero cache stats.
    std::printf("record cache %s: not active for this run\n",
                args.record_cache.c_str());
  } else if (result->record_cache_active) {
    const auto& cache = result->record_cache_stats;
    const auto& os = result->oracle_stats;
    std::printf(
        "record cache %s: %zu records loaded (%zu for this task), "
        "%zu trainings replayed, %zu trained fresh, %zu appended\n",
        args.record_cache.c_str(), cache.loaded_records, cache.task_records,
        os.persistent_hits, os.exact_evals, cache.appended);
    if (os.persistent_hits + os.exact_evals > 0) {
      std::printf("warm-start hit rate: %.1f%%\n",
                  100.0 * double(os.persistent_hits) /
                      double(os.persistent_hits + os.exact_evals));
    }
  }
  size_t i = 0;
  for (const auto& entry : result->skyline) {
    Table dataset = universe.Materialize(entry.state);
    const fs::path path =
        fs::path(args.out) / ("skyline_" + std::to_string(i++) + ".csv");
    MODIS_RETURN_IF_ERROR(WriteCsvFile(dataset, path.string()));
    std::printf("  %s (%zu x %zu):", path.filename().c_str(),
                dataset.num_rows(), dataset.num_cols());
    for (size_t j = 0; j < task.measures.size(); ++j) {
      std::printf(" %s=%.4f", task.measures[j].name.c_str(),
                  entry.eval.raw[j]);
    }
    std::printf("\n");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Status status = Run(std::move(args));
  if (!status.ok()) {
    std::fprintf(stderr, "modis_cli: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
