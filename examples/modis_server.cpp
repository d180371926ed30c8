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
///                                (in the workers, in pool mode)
///             [--sessions N]     concurrent query executors (default 2;
///                                = --workers in pool mode)
///             [--queue N]        admission-queue capacity (default 8)
///             [--threads N]      shared valuation pool (0 = hardware)
///             [--cache PATH]     default record-cache file
///             [--cache-mode M]   off | read | read_write (default)
///             [--cache-max-bytes N]  byte budget (default 256 MiB; 0 = off)
///             [--row-scale S]    bench-lake row scale (default 1.0)
///             [--http]           accepted and ignored: HTTP is always on
///             [--tenant SPEC]    QoS tenant (repeatable); SPEC is
///                                NAME:API_KEY[:RATE[:BURST[:MAX_IN_FLIGHT
///                                [:PRIORITY]]]] — see docs/SERVING.md §7
///             [--log-level L]    debug | info (default) | warn | error
///             [--log-json]       one JSON object per log line
///             [--slow-query-ms N]  WARN queries slower than N ms (0 = off)
///             [--trace-ring N]   retained recent AND slow traces (def. 16)
///             [--workers N]      worker *processes* executing the
///                                admitted queries over a shared-memory
///                                job ring of 2N slots (0 = in-process
///                                mode, the default; docs/MULTIPROCESS.md)
///             [--worker-respawn-ms N]  respawn backoff base (def. 200)
///             [--ring-path P]    ring segment file (default: a /tmp
///                                path derived from the pid)
///
/// --socket and --listen may be combined; both transports answer from the
/// same service. In either execution mode this process admits, traces,
/// and counts every query; with --workers the admitted queries execute in
/// worker processes (this binary re-executed with --worker-attach, which
/// main() hands to RunWorkerMain), and those hold the task contexts and
/// open the cache file shared. A numeric flag whose value is not a number
/// within its range is reported and the binary exits 2. SIGTERM/SIGINT
/// drain gracefully: stop accepting, half-close every connection, finish
/// all accepted work, flush the caches, dump a final metrics line, stop
/// the workers, exit 0.
///
/// The host owns its cache files: a writable open holds the flock writer
/// lock for the process lifetime, so a second host on the same file fails
/// fast and batch runs degrade to cold. `--batch` executes one request
/// without the service (fresh lake, fresh engine) and prints the same
/// response JSON — the reference the serving smoke test diffs against.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
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
  double row_scale = 1.0;
  std::vector<TenantSpec> tenants;
  std::string log_level = "info";
  bool log_json = false;
  double slow_query_ms = 0.0;
  size_t trace_ring = 16;
  // Multi-process mode (docs/MULTIPROCESS.md).
  uint32_t workers = 0;
  int worker_respawn_ms = 200;
  std::string ring_path;
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
    } else if (flag == "--worker-respawn-ms") {
      ok = number(1, 3'600'000, &args->worker_respawn_ms);
    } else if (flag == "--ring-path") {
      ok = next(&args->ring_path);
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
      args->batch_request.empty()) {
    std::fprintf(stderr,
                 "one of --socket PATH, --listen HOST:PORT, or --batch JSON "
                 "is required\n");
    return false;
  }
  return true;
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

/// The drain trigger: SIGTERM/SIGINT handlers may only touch the
/// async-signal-safe RequestStop() (one write(2) to the server's pipe).
HttpServer* g_server = nullptr;

void OnShutdownSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--worker-attach") == 0) {
    return RunWorkerMain(argc, argv);
  }
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

  std::signal(SIGPIPE, SIG_IGN);  // A dropped client must not kill the host.

  DiscoveryService::Options options;
  options.sessions = args.sessions;
  options.queue_capacity = args.queue;
  options.valuation_threads = args.threads;
  options.default_cache_path = args.cache;
  options.cache_max_bytes = args.cache_max_bytes;
  options.task_row_scale = args.row_scale;
  options.tenants = args.tenants;
  options.slow_query_ms = args.slow_query_ms;
  options.trace_ring_capacity = args.trace_ring;
  auto mode = ParseCacheMode(args.cache_mode);
  if (!mode.ok()) {
    MODIS_LOG(ERROR, "server") << mode.status().ToString();
    return 2;
  }
  options.default_cache_mode = mode.value();

  // In-process host: the hold parks this process's first query at the
  // span (a pool host forwards the flag to its workers instead).
  if (args.workers == 0 && !args.test_hold_at.empty()) {
    ArmTestHold(args.test_hold_at);
  }

  // Pool host: the workers execute with this host's execution settings
  // and preload its tasks; this process builds no task context.
  std::unique_ptr<WorkerPool> pool;
  if (args.workers > 0) {
    WorkerOptions worker;
    worker.ring_path = args.ring_path.empty()
                           ? "/tmp/modis-ring-" + std::to_string(::getpid()) +
                                 ".shm"
                           : args.ring_path;
    worker.service = options;
    worker.tasks = args.tasks;
    WorkerPool::Options pool_options;
    pool_options.workers = args.workers;
    pool_options.ring_path = worker.ring_path;
    pool_options.respawn_ms = args.worker_respawn_ms;
    // Shared by the copies WorkerPool keeps of this function.
    auto spawned = std::make_shared<std::vector<bool>>(args.workers, false);
    pool_options.spawn = [worker, hold = args.test_hold_at,
                          spawned](uint32_t index) {
      WorkerOptions options = worker;
      options.worker_index = index;
      // A respawned worker is disarmed, like a crash that does not recur.
      if (!(*spawned)[index]) options.hold_at = hold;
      (*spawned)[index] = true;
      return SpawnWorkerProcess(options);
    };
    if (Status started = WorkerPool::Start(pool_options, &pool);
        !started.ok()) {
      MODIS_LOG(ERROR, "server") << started.ToString();
      return 1;
    }
    MODIS_LOG(INFO, "server")
        .Tag("workers", uint64_t(args.workers))
        .Tag("ring", worker.ring_path)
        .Tag("slots", uint64_t(pool->ring()->slot_count()))
        << "worker pool started";
  }

  DiscoveryService service(options, std::move(pool));
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

  HttpServer server(
      [&service](const HttpRequest& request) {
        return RouteHttpRequest(&service, request);
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

  if (args.workers == 0) (void)service.Preload(args.tasks);

  // Blocks until SIGTERM/SIGINT; returns with every accepted request
  // answered and every connection closed. The service dtor (end of main)
  // then drains its own queue — already empty —, flushes every cache, and
  // stops the worker pool.
  server.Serve();
  g_server = nullptr;

  MODIS_LOG(INFO, "server")
      << "drained; final "
      << SerializeServiceMetrics(service.SnapshotMetrics());
  return 0;
}
