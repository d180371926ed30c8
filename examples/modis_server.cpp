/// modis_server — the long-lived discovery host.
///
/// Serves MODis discovery queries over HTTP/1.1 (docs/SERVING.md) on any
/// mix of unix-socket and TCP listeners behind a single accept loop
/// (src/service/transport.h): POST /v1/query takes one JSON request
/// document and answers one JSON response document; GET /metrics
/// (Prometheus), GET /v1/debug/traces, and GET /healthz observe the host.
///
/// Usage:
///   modis_server --socket /tmp/modis.sock    # AF_UNIX stream listener
///   modis_server --listen 127.0.0.1:7077     # TCP listener (port 0 = any)
///   modis_server --batch '<request json>'    # one-shot reference run
///             [--tasks T1,T2]    preload task contexts before serving
///             [--sessions N]     concurrent query executors (default 2)
///             [--queue N]        admission-queue capacity (default 8)
///             [--threads N]      shared valuation pool (0 = hardware)
///             [--cache PATH]     default record-cache file
///             [--cache-mode M]   off | read | read_write (default)
///             [--cache-max-bytes N]  byte budget (default 256 MiB; 0 = off)
///             [--max-task-contexts N]  LRU cap on live contexts (0 = off)
///             [--context-ttl S]  idle context TTL in seconds (0 = off)
///             [--row-scale S]    bench-lake row scale (default 1.0)
///             [--http]           accepted and ignored: HTTP is always on
///             [--tenant SPEC]    QoS tenant (repeatable); SPEC is
///                                NAME:API_KEY[:RATE[:BURST[:MAX_IN_FLIGHT
///                                [:PRIORITY]]]] — see docs/SERVING.md §7
///             [--log-level L]    debug | info (default) | warn | error
///             [--log-json]       one JSON object per log line
///             [--slow-query-ms N]  WARN queries slower than N ms (0 = off)
///             [--trace-ring N]   retained recent AND slow traces (def. 16)
///             [--workers N]      worker *processes* draining a shared-
///                                memory job ring (0 = in-process mode,
///                                the default; docs/MULTIPROCESS.md)
///             [--job-ring N]     job slots in the ring (default 16)
///             [--worker-respawn-ms N]  respawn backoff base (def. 200)
///             [--ring-path P]    ring segment file (default: a /tmp
///                                path derived from the pid)
///
/// --socket and --listen may be combined; both transports answer from the
/// same service. A numeric flag whose value is not a number within its
/// range is reported and the binary exits 2. SIGTERM/SIGINT drain
/// gracefully: stop accepting, half-close every connection, finish all
/// accepted work, flush the caches, dump a final metrics line, exit 0.
///
/// The host owns its cache files: a writable open holds the flock writer
/// lock for the process lifetime, so a second host on the same file fails
/// fast and batch runs degrade to cold. `--batch` executes one request
/// without the service (fresh lake, fresh engine) and prints the same
/// response JSON — the reference the serving smoke test diffs against.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "flags.h"
#include "service/discovery_service.h"
#include "service/http.h"
#include "service/qos.h"
#include "service/transport.h"
#include "service/wire.h"
#include "service/worker.h"

using namespace modis;

namespace {

struct Args {
  std::string socket_path;
  std::string listen;  // TCP HOST:PORT.
  std::string batch_request;
  std::string tasks;
  size_t sessions = 2;
  size_t queue = 8;
  size_t threads = 0;
  std::string cache;
  std::string cache_mode = "read_write";
  uint64_t cache_max_bytes = DiscoveryService::Options::kDefaultCacheMaxBytes;
  size_t max_task_contexts = 0;
  double context_ttl = 0.0;
  double row_scale = 1.0;
  std::vector<TenantSpec> tenants;
  std::string log_level = "info";
  bool log_json = false;
  double slow_query_ms = 0.0;
  size_t trace_ring = 16;
  // Multi-process mode (docs/MULTIPROCESS.md).
  uint32_t workers = 0;
  uint32_t job_ring = 16;
  int worker_respawn_ms = 200;
  std::string ring_path;
  // Hidden: set when this process IS a worker (spawned by the
  // coordinator via fork+exec of its own binary).
  std::string worker_attach;
  uint32_t worker_index = 0;
  // Hidden, test only (--test-hold-at SPAN): the first query to open
  // SPAN parks there until SIGUSR1 (ArmTestHold) — in the in-process
  // host, or in each worker's first incarnation.
  std::string test_hold_at;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  constexpr size_t kMaxCount = size_t(1) << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    std::string value;
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    // A numeric operand must be a number within [min, max].
    auto number = [&](auto min, auto max, auto* out) {
      return next(&value) && ParseNumericFlag(flag, value, min, max, out);
    };
    bool ok = true;
    if (flag == "--socket") {
      ok = next(&args->socket_path);
    } else if (flag == "--listen") {
      ok = next(&args->listen);
    } else if (flag == "--batch") {
      ok = next(&args->batch_request);
    } else if (flag == "--tasks") {
      ok = next(&args->tasks);
    } else if (flag == "--sessions") {
      ok = number(size_t{1}, size_t{1024}, &args->sessions);
    } else if (flag == "--queue") {
      ok = number(size_t{1}, kMaxCount, &args->queue);
    } else if (flag == "--threads") {
      ok = number(size_t{0}, size_t{1024}, &args->threads);
    } else if (flag == "--cache") {
      ok = next(&args->cache);
    } else if (flag == "--cache-mode") {
      ok = next(&args->cache_mode);
    } else if (flag == "--cache-max-bytes") {
      ok = number(uint64_t{0}, uint64_t{INT64_MAX}, &args->cache_max_bytes);
    } else if (flag == "--max-task-contexts") {
      ok = number(size_t{0}, kMaxCount, &args->max_task_contexts);
    } else if (flag == "--context-ttl") {
      ok = number(0.0, 1e9, &args->context_ttl);
    } else if (flag == "--row-scale") {
      ok = number(1e-6, 1e3, &args->row_scale);
    } else if (flag == "--http") {
      // No-op: every listener speaks HTTP/1.1.
    } else if (flag == "--log-level") {
      ok = next(&args->log_level);
    } else if (flag == "--log-json") {
      args->log_json = true;
    } else if (flag == "--slow-query-ms") {
      ok = number(0.0, 1e12, &args->slow_query_ms);
    } else if (flag == "--trace-ring") {
      ok = number(size_t{0}, kMaxCount, &args->trace_ring);
    } else if (flag == "--workers") {
      ok = number(uint32_t{0}, ShmRing::kMaxWorkers, &args->workers);
    } else if (flag == "--job-ring") {
      ok = number(uint32_t{1}, uint32_t{4096}, &args->job_ring);
    } else if (flag == "--worker-respawn-ms") {
      ok = number(1, 3'600'000, &args->worker_respawn_ms);
    } else if (flag == "--ring-path") {
      ok = next(&args->ring_path);
    } else if (flag == "--worker-attach") {
      ok = next(&args->worker_attach);
    } else if (flag == "--worker-index") {
      ok = number(uint32_t{0}, ShmRing::kMaxWorkers - 1, &args->worker_index);
    } else if (flag == "--test-hold-at") {
      ok = next(&args->test_hold_at);
    } else if (flag == "--tenant") {
      if (!next(&value)) return false;
      auto spec = ParseTenantSpec(value);
      if (!spec.ok()) {
        std::fprintf(stderr, "--tenant %s: %s\n", value.c_str(),
                     spec.status().ToString().c_str());
        return false;
      }
      args->tenants.push_back(std::move(spec).value());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) return false;
  }
  if (args->socket_path.empty() && args->listen.empty() &&
      args->batch_request.empty() && args->worker_attach.empty()) {
    std::fprintf(stderr,
                 "one of --socket PATH, --listen HOST:PORT, or --batch JSON "
                 "is required\n");
    return false;
  }
  return true;
}

/// fork+execs this very binary (/proc/self/exe) in worker mode,
/// mirroring every engine-relevant flag of the coordinator's command
/// line so workers open the same cache file with the same settings.
pid_t SpawnWorker(const Args& args, const std::string& ring_path,
                  uint32_t worker, bool first_incarnation) {
  std::vector<std::string> storage;
  storage.push_back("modis_server");
  auto add = [&storage](const char* flag, const std::string& value) {
    storage.push_back(flag);
    storage.push_back(value);
  };
  add("--worker-attach", ring_path);
  add("--worker-index", std::to_string(worker));
  if (!args.cache.empty()) add("--cache", args.cache);
  add("--cache-mode", args.cache_mode);
  add("--cache-max-bytes", std::to_string(args.cache_max_bytes));
  add("--max-task-contexts", std::to_string(args.max_task_contexts));
  add("--context-ttl", std::to_string(args.context_ttl));
  add("--row-scale", std::to_string(args.row_scale));
  add("--threads", std::to_string(args.threads));
  add("--sessions", "1");  // A worker drains one job at a time.
  add("--slow-query-ms", std::to_string(args.slow_query_ms));
  add("--trace-ring", std::to_string(args.trace_ring));
  add("--log-level", args.log_level);
  if (args.log_json) storage.push_back("--log-json");
  // A respawned worker is disarmed, like a crash that does not recur.
  if (first_incarnation && !args.test_hold_at.empty()) {
    add("--test-hold-at", args.test_hold_at);
  }
  std::vector<char*> argv;
  argv.reserve(storage.size() + 1);
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    _exit(127);  // exec failed; the supervisor respawns with backoff.
  }
  if (pid > 0) {
    MODIS_LOG(INFO, "server")
        .Tag("worker", uint64_t(worker))
        .Tag("pid", int64_t(pid))
        << "worker spawned";
  }
  return pid;
}

/// Worker-process entry: attach to the coordinator's ring and drain it
/// until the coordinator stops the ring or kills us. The cache opens in
/// shared mode — short-lived lock windows instead of a lifetime writer
/// lock — so N workers and the coordinator coexist on one file.
int RunWorker(const Args& args, DiscoveryService::Options options) {
  options.shared_cache = true;
  options.request_id_prefix =
      "q-w" + std::to_string(args.worker_index) + "-";
  DiscoveryService service(options);
  WorkerOptions worker_options;
  worker_options.ring_path = args.worker_attach;
  worker_options.worker_index = args.worker_index;
  worker_options.hold_at = args.test_hold_at;
  MODIS_LOG(INFO, "worker")
      .Tag("worker", uint64_t(args.worker_index))
      .Tag("ring", args.worker_attach)
      << "attached; draining";
  const Status ran = RunWorkerLoop(&service, worker_options);
  if (!ran.ok()) {
    MODIS_LOG(ERROR, "worker") << ran.ToString();
    return 1;
  }
  return 0;
}

int RunBatch(const Args& args) {
  auto request = ParseDiscoveryRequest(args.batch_request);
  if (!request.ok()) {
    std::printf("%s\n", SerializeDiscoveryError(request.status()).c_str());
    return 1;
  }
  auto response =
      DiscoveryService::AnswerDetached(request.value(), args.row_scale);
  if (!response.ok()) {
    std::printf("%s\n", SerializeDiscoveryError(response.status()).c_str());
    return 1;
  }
  std::printf("%s\n", SerializeDiscoveryResponse(response.value()).c_str());
  return 0;
}

void Preload(DiscoveryService* service, const std::string& tasks) {
  size_t start = 0;
  while (start <= tasks.size()) {
    const size_t comma = tasks.find(',', start);
    const std::string task = tasks.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!task.empty()) {
      const Status preloaded = service->Preload(task);
      if (preloaded.ok()) {
        MODIS_LOG(INFO, "server").Tag("task", task) << "preloaded";
      } else {
        MODIS_LOG(WARN, "server").Tag("task", task)
            << "preload failed: " << preloaded.ToString();
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

/// The drain trigger: SIGTERM/SIGINT handlers may only touch the
/// async-signal-safe RequestStop() (one write(2) to the server's pipe).
HttpServer* g_server = nullptr;

void OnShutdownSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;

  LogLevel log_level = LogLevel::kInfo;
  if (!ParseLogLevel(args.log_level, &log_level)) {
    std::fprintf(stderr,
                 "modis_server: --log-level %s is not one of "
                 "debug|info|warn|error\n",
                 args.log_level.c_str());
    return 2;
  }
  SetLogLevel(log_level);
  SetLogJson(args.log_json);

  if (!args.batch_request.empty()) return RunBatch(args);

#if !defined(_WIN32)
  std::signal(SIGPIPE, SIG_IGN);  // A dropped client must not kill the host.
#endif

  DiscoveryService::Options options;
  options.sessions = args.sessions;
  options.queue_capacity = args.queue;
  options.valuation_threads = args.threads;
  options.default_cache_path = args.cache;
  options.cache_max_bytes = args.cache_max_bytes;
  options.max_task_contexts = args.max_task_contexts;
  options.context_idle_ttl_s = args.context_ttl;
  options.task_row_scale = args.row_scale;
  options.tenants = args.tenants;
  options.slow_query_ms = args.slow_query_ms;
  options.trace_recent_capacity = args.trace_ring;
  options.trace_slow_capacity = args.trace_ring;
  auto mode = ParseCacheMode(args.cache_mode);
  if (!mode.ok()) {
    MODIS_LOG(ERROR, "server") << mode.status().ToString();
    return 2;
  }
  options.default_cache_mode = mode.value();

  if (!args.worker_attach.empty()) return RunWorker(args, options);

  // Coordinator of the multi-process host: queries execute in worker
  // processes over the shared cache file, so its own service opens the
  // cache in shared mode too (metrics and traces stay local).
  if (args.workers > 0) options.shared_cache = true;
  // In-process host: the hold parks this process's first query at the
  // span (a pool host forwards the flag to its workers instead).
  if (args.workers == 0 && !args.test_hold_at.empty()) {
    ArmTestHold(args.test_hold_at);
  }

  DiscoveryService service(options);
  if (!args.cache.empty() && options.default_cache_mode != CacheMode::kOff) {
    if (options.cache_max_bytes > 0) {
      MODIS_LOG(INFO, "server")
          .Tag("bytes", options.cache_max_bytes)
          << "record cache budget: " << options.cache_max_bytes << " bytes";
    } else {
      MODIS_LOG(INFO, "server")
          << "record cache budget: unbounded (--cache-max-bytes 0)";
    }
  }

  std::unique_ptr<WorkerPool> pool;
  std::string ring_path = args.ring_path;
  if (args.workers > 0) {
    if (ring_path.empty()) {
      ring_path = "/tmp/modis-ring-" + std::to_string(::getpid()) + ".shm";
    }
    WorkerPool::Options pool_options;
    pool_options.workers = args.workers;
    pool_options.ring_path = ring_path;
    pool_options.ring.slots = args.job_ring;
    pool_options.respawn_ms = args.worker_respawn_ms;
    // Shared by the copies WorkerPool keeps of this function.
    auto spawned = std::make_shared<std::vector<bool>>(args.workers, false);
    pool_options.spawn = [&args, ring_path, spawned](uint32_t worker) {
      const bool first = !(*spawned)[worker];
      (*spawned)[worker] = true;
      return SpawnWorker(args, ring_path, worker, first);
    };
    if (Status started = WorkerPool::Start(pool_options, &pool);
        !started.ok()) {
      MODIS_LOG(ERROR, "server") << started.ToString();
      return 1;
    }
    MODIS_LOG(INFO, "server")
        .Tag("workers", uint64_t(args.workers))
        .Tag("ring", ring_path)
        .Tag("slots", uint64_t(args.job_ring))
        << "worker pool started";
  }

  HttpServer server(
      [&service, &pool](const HttpRequest& request) {
        return RouteHttpRequest(&service, pool.get(), request);
      },
      HttpServer::Options(), service.metrics());

  // Bind every listener before the (potentially slow) preloads: clients
  // can connect immediately (the accept backlog holds them) and their
  // first queries simply wait on the context build.
  if (!args.socket_path.empty()) {
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = args.socket_path;
    if (Status listening = server.Listen(endpoint); !listening.ok()) {
      MODIS_LOG(ERROR, "server") << listening.ToString();
      return 1;
    }
  }
  if (!args.listen.empty()) {
    auto endpoint = ParseEndpoint(
        args.listen.rfind("tcp:", 0) == 0 ? args.listen
                                          : "tcp:" + args.listen);
    if (!endpoint.ok()) {
      MODIS_LOG(ERROR, "server") << endpoint.status().ToString();
      return 2;
    }
    if (Status listening = server.Listen(endpoint.value());
        !listening.ok()) {
      MODIS_LOG(ERROR, "server") << listening.ToString();
      return 1;
    }
  }
  for (const Endpoint& endpoint : server.endpoints()) {
    MODIS_LOG(INFO, "server")
        .Tag("endpoint", endpoint.ToString())
        << "serving HTTP/1.1 on " << endpoint.ToString()
        << " (POST /v1/query, GET /metrics, GET /v1/debug/traces, "
           "GET /healthz)";
  }
  for (const TenantSpec& tenant : args.tenants) {
    MODIS_LOG(INFO, "server")
        .Tag("tenant", tenant.name)
        .Tag("rate", tenant.rate_per_s)
        .Tag("burst", tenant.burst)
        .Tag("in_flight", uint64_t(tenant.max_in_flight))
        .Tag("priority", int64_t(tenant.priority))
        << "tenant configured";
  }

  g_server = &server;
  std::signal(SIGTERM, OnShutdownSignal);
  std::signal(SIGINT, OnShutdownSignal);

  Preload(&service, args.tasks);

  // Blocks until SIGTERM/SIGINT; returns with every accepted request
  // answered and every connection closed. The service dtor (end of main)
  // then drains its own queue — already empty — and flushes every cache.
  server.Serve();
  g_server = nullptr;

  if (pool) {
    pool->Stop();
    ::unlink(ring_path.c_str());
  }

  MODIS_LOG(INFO, "server")
      << "drained; final "
      << SerializeServiceMetrics(service.SnapshotMetrics());
  return 0;
}
