#ifndef MODIS_SERVICE_DISCOVERY_SERVICE_H_
#define MODIS_SERVICE_DISCOVERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <set>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/engine.h"
#include "datagen/tasks.h"
#include "estimator/training_fuser.h"
#include "service/metrics.h"
#include "service/qos.h"
#include "storage/persistent_record_cache.h"

namespace modis {

class WorkerPool;

/// One discovery query against the long-lived service: which task, which
/// MODis variant, which slice of the task's measure set, and the knobs of
/// the (N, ε)-approximation. The wire codec (service/wire.h) maps this
/// 1:1 onto the JSON request document of docs/SERVING.md.
struct DiscoveryRequest {
  /// Bench task: "T1".."T4", "case1"/"case2", or a full BenchTaskName
  /// ("T2-house"). The service loads each task's lake and universe once.
  std::string task;
  /// "apx" | "nobi" | "bi" | "div".
  std::string variant = "bi";
  /// "exact" | "gbm" (the MO-GBM surrogate oracle).
  std::string oracle = "exact";
  /// Names of the task measures to optimize, in the task's canonical
  /// order; empty = the task's full measure set. Dropping wall-clock
  /// measures ("train_time") is how clients get bit-reproducible answers.
  std::vector<std::string> measures;
  double epsilon = 0.2;
  size_t budget = 120;  // ModisConfig::max_states.
  int maxl = 4;
  size_t k = 5;         // DivMODis skyline cap.
  double alpha = 0.5;
  /// Record-cache override; empty = the service's default cache (if any).
  std::string cache_path;
  /// "" (service default) | "off" | "read" | "read_write".
  std::string cache_mode;
  std::string cache_namespace;
  uint64_t seed = 1;
  /// Tenant credential for the QoS admission layer; empty = the default
  /// tenant. Never part of the query fingerprint — answers are identical
  /// across tenants.
  std::string api_key;
  /// Echo the query's span tree inline on the response (wire
  /// `"trace":true` / HTTP `X-Modis-Trace: 1`). Every query is recorded
  /// either way (for the debug ring and the phase histograms); this flag
  /// only controls the inline echo. Like api_key it is never part of the
  /// query fingerprint or the warmth key — tracing cannot perturb
  /// admission or the answer.
  bool trace = false;
};

/// One skyline member of a response, flattened for the wire.
struct DiscoverySkylineRow {
  std::string signature;
  int level = 0;
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> raw;
  std::vector<double> normalized;
};

/// Everything a client gets back: the ε-skyline plus per-query stats.
struct DiscoveryResponse {
  std::string task;     // Canonical task name ("T2-house").
  std::string variant;
  std::vector<std::string> measure_names;  // Order of raw/normalized.
  std::vector<DiscoverySkylineRow> skyline;

  // Per-query search/valuation counters (this query's oracle only).
  size_t valuated_states = 0;
  size_t generated_states = 0;
  size_t pruned_states = 0;
  size_t exact_evals = 0;
  size_t persistent_hits = 0;
  size_t surrogate_evals = 0;
  size_t cache_hits = 0;
  size_t failed_evals = 0;
  /// Exact trainings this query consumed from another query's concurrent
  /// (or just-finished) identical training instead of running its own
  /// (cross-query fusion; counted separately from exact_evals).
  size_t fused_hits = 0;
  bool cache_active = false;

  double queue_ms = 0.0;  // Admission-queue wait.
  double run_ms = 0.0;    // Engine wall time.
  double total_ms = 0.0;  // Queue + context + engine, as the client saw it.

  /// Host-assigned id of the accepted query ("q-000042"): appears in
  /// logs, traces, the response wire, and the X-Modis-Request-Id HTTP
  /// header. Empty on the detached (service-free) path.
  std::string request_id;
  /// The query's span tree; populated only when the request set `trace`.
  std::vector<TraceSpan> trace_spans;
};

/// The long-lived discovery host: loads each task's data lake and
/// SearchUniverse once, owns one shared ThreadPool for all valuation
/// fan-out and one PersistentRecordCache per cache file, and answers
/// discovery queries concurrently through a bounded admission queue.
///
/// One admission path, two executors: the service always owns admission
/// (QoS, request ids, the query/admission/respond spans, the queue, the
/// trace ring, and every counter and histogram). A session executes each
/// dequeued query either in this process (Execute) or, when the service
/// owns a WorkerPool, in a worker process over the shared-memory job
/// ring (WorkerPool::Execute), whose span subtree is grafted under the
/// query root (docs/MULTIPROCESS.md).
///
/// Concurrency contract: `sessions` threads drain the queue; each
/// query gets its own evaluator + oracle + ModisEngine over the shared
/// universe, lent the shared pool, cache and fuser through a
/// ValuationContext. Because every recorded evaluation replays exactly
/// what the deterministic training that produced it returned, queries
/// whose measure set excludes wall-clock measures
/// produce skylines byte-identical to a serial execution, no matter how
/// the concurrent sessions interleave on the shared cache — the property
/// tests/service_test.cc pins down. Submit() fails fast with
/// FailedPrecondition when the queue is at capacity (bounded admission:
/// shed load at the door, never stall the socket loop).
class DiscoveryService {
 public:
  struct Options {
    /// Default byte budget per cache file. A host is long-lived: an
    /// unbounded log would grow with every novel query forever, so the
    /// production default bounds it (explicitly pass 0 to opt out).
    static constexpr uint64_t kDefaultCacheMaxBytes = 256ull << 20;

    /// Concurrent query executors (each runs one engine at a time).
    /// Derived when the service owns a WorkerPool: one session per
    /// worker process. 0 starts none: the execution-only service of a
    /// worker process, whose Submit() fails and which opens every cache
    /// file as a *shared* attachment (PersistentRecordCache::OpenShared)
    /// instead of holding the lifetime writer lock, so sibling workers
    /// serve the same file (docs/MULTIPROCESS.md). The attachment
    /// re-reads the file before each query that touches it, making a
    /// sibling's published trainings warm hits here.
    size_t sessions = 2;
    /// Bounded admission: Submit() rejects beyond this many queued
    /// requests (requests being executed do not count).
    size_t queue_capacity = 8;
    /// Workers of the shared valuation pool; 0 = hardware concurrency.
    size_t valuation_threads = 0;
    /// Cache file served when a request does not name one; empty = no
    /// default cache.
    std::string default_cache_path;
    /// Mode applied when a request leaves cache_mode empty.
    CacheMode default_cache_mode = CacheMode::kReadWrite;
    /// Byte budget per cache file (0 = unbounded); see
    /// PersistentRecordCache::Options::max_bytes.
    uint64_t cache_max_bytes = kDefaultCacheMaxBytes;
    /// Row scale of the generated bench lakes (1.0 = paper scale; tests
    /// and smoke runs shrink it).
    double task_row_scale = 1.0;
    /// Multi-tenant QoS: API-key → token bucket + in-flight quota +
    /// priority (docs/SERVING.md §7). Empty = QoS off (every request is
    /// admitted up to queue_capacity, FIFO — the pre-QoS behavior). When
    /// non-empty, requests with no key (or an unknown one) land on the
    /// spec with the empty api_key, or on a built-in unlimited
    /// "anonymous" tenant if none is configured.
    std::vector<TenantSpec> tenants;
    /// Slow-query log threshold (ms): any query whose total latency
    /// reaches it gets one structured WARN line with its request id,
    /// tenant, task, and per-phase breakdown. 0 = off.
    double slow_query_ms = 0.0;
    /// Completed-trace retention: the N most recent and the N slowest
    /// traces, served by GET /v1/debug/traces.
    size_t trace_ring_capacity = 16;
  };

  struct Stats {
    size_t accepted = 0;
    size_t rejected = 0;
    size_t served = 0;   // Completed OK.
    size_t failed = 0;   // Completed with an error.
  };

  using Callback = std::function<void(Result<DiscoveryResponse>)>;

  explicit DiscoveryService(Options options);
  /// With a started `workers` pool, queries execute in its worker
  /// processes and this process builds no task context or cache.
  DiscoveryService(Options options, std::unique_ptr<WorkerPool> workers);
  /// Drains the queue (accepted work is finished, not dropped), joins
  /// the sessions, flushes every shared cache, then stops the pool.
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Builds the contexts (lake, universal table, universe) of a
  /// comma-separated task list eagerly so the first queries don't pay
  /// for them. Logs each task; returns the first failure.
  Status Preload(const std::string& tasks);

  /// Asynchronous submission: `done` runs exactly once for every
  /// admitted request. Fails fast without invoking `done`:
  ///   - FailedPrecondition when the service is shutting down;
  ///   - ResourceExhausted (HTTP 429, with a retry_after_s hint) when the
  ///     tenant's token bucket or in-flight quota rejects the request, or
  ///     when the queue is full and the request does not outrank any
  ///     queued work.
  /// Under overload a full queue sheds the cheapest-to-retry queued job
  /// first — lowest priority, cold before warm, youngest on ties — whose
  /// own callback then gets the ResourceExhausted status. Work that a
  /// session already picked up is never shed.
  Status Submit(DiscoveryRequest request, Callback done);

  /// Synchronous convenience over Submit: blocks until the response.
  Result<DiscoveryResponse> Answer(const DiscoveryRequest& request);

  /// The execution half, without admission: runs one query end to end on
  /// the calling thread. `trace` (with its root span) records the
  /// context/run phases; both may be null/kNoSpan for an untraced
  /// execution. In-process sessions call it for every dequeued query; a
  /// worker process calls it for every ring job.
  Result<DiscoveryResponse> Execute(const DiscoveryRequest& request,
                                    TraceRecorder* trace, SpanId root);

  /// One-shot, service-free execution of a request: fresh lake, fresh
  /// universe, own pool, self-opened cache (if the request names one).
  /// This is the "cold process-per-query" baseline the serving bench
  /// compares against, and the `modis_server --batch` reference mode.
  static Result<DiscoveryResponse> AnswerDetached(
      const DiscoveryRequest& request, double task_row_scale = 1.0);

  Stats stats() const;
  const Options& options() const { return options_; }

  /// The shared counter registry. The transport layer (HttpServer) and
  /// the server binary write transport counters into the same registry so
  /// one GET /metrics snapshot covers the whole host.
  ServiceMetrics* metrics() { return &metrics_; }

  /// One consistent export of every counter, gauge (queue depth, live
  /// contexts, open-cache totals), and latency histogram — the payload of
  /// GET /metrics and of the shutdown dump.
  MetricsSnapshot SnapshotMetrics() const;

  /// Completed traces retained by the host debug ring — the payload of
  /// GET /v1/debug/traces.
  std::vector<Trace> RecentTraces() const { return trace_ring_.Recent(); }
  std::vector<Trace> SlowestTraces() const { return trace_ring_.Slowest(); }

 private:
  struct TaskContext {
    TabularBench bench;
    SearchUniverse universe;

    TaskContext(TabularBench b, SearchUniverse u)
        : bench(std::move(b)), universe(std::move(u)) {}
  };

  struct Job {
    DiscoveryRequest request;
    Callback done;
    WallTimer queued;
    /// Index into tenants_; SIZE_MAX when QoS is off.
    size_t tenant = size_t(-1);
    int priority = 0;
    /// An identical request completed OK before (cheap to re-answer, so
    /// expensive to shed relative to cold work).
    bool warm = false;
    /// Host-assigned id of this accepted query, minted at admission.
    std::string request_id;
    /// Monotonic admission sequence (the numeric half of request_id).
    uint64_t sequence = 0;
    /// Every accepted query records spans (the recorder is cheap and
    /// feeds the debug ring + phase histograms even when the client did
    /// not opt into the inline echo). shared_ptr: the job is moved
    /// between queue and session.
    std::shared_ptr<TraceRecorder> recorder;
    SpanId root_span = kNoSpan;
    SpanId admission_span = kNoSpan;
  };

  /// One tenant's live QoS state; guarded by queue_mu_.
  struct Tenant {
    TenantSpec spec;
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
    size_t in_flight = 0;  // Queued + executing.
    uint64_t admitted = 0;
    uint64_t rate_limited = 0;
    uint64_t quota_rejected = 0;
    uint64_t shed = 0;
    uint64_t served = 0;
    uint64_t failed = 0;
  };

  /// Resolves (building on first use) the shared context of a task.
  /// Contexts live as long as the service, so the pointer stays valid.
  Result<const TaskContext*> GetContext(const std::string& task);

  /// Resolves (opening on first use) the shared cache for a request;
  /// null when the request and the service default both disable caching.
  Result<PersistentRecordCache*> GetCache(const DiscoveryRequest& request,
                                          CacheMode* effective_mode);

  void SessionLoop();

  /// Tenant of `api_key` (falling back to the default/anonymous tenant).
  /// Only meaningful when QoS is on. Caller holds queue_mu_.
  size_t ResolveTenantLocked(const std::string& api_key) const;

  /// QoS admission: bucket + quota checks, shed-victim selection. On
  /// rejection returns non-OK; when a queued victim must be shed, moves
  /// its callback into *shed so the caller can fail it outside the lock.
  /// Caller holds queue_mu_.
  Status AdmitLocked(const DiscoveryRequest& request, size_t* tenant_index,
                     int* priority, bool* warm, Job* shed);

  Options options_;
  ThreadPool pool_;
  /// Cross-query exact-training fuser shared by every engine the service
  /// constructs (ValuationContext::fuser). Engines scope it by their own
  /// TaskFingerprint, so only queries over identical data, layout,
  /// measures, and model identity ever share a training. Declared before
  /// the session threads so it outlives every engine they run.
  TrainingFuser fuser_;
  /// The out-of-process executor; null in process. Stopped only after
  /// every session has been joined.
  std::unique_ptr<WorkerPool> workers_;

  mutable std::mutex context_mu_;
  /// Keyed by canonical task name. A context is built on first use (or
  /// by Preload) and never leaves the map.
  std::map<std::string, std::unique_ptr<TaskContext>> contexts_;

  mutable std::mutex cache_mu_;
  /// Keyed by cache path as given; one open (locked) cache per file,
  /// shared by every query that names it.
  std::map<std::string, std::unique_ptr<PersistentRecordCache>> caches_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;

  // QoS state, guarded by queue_mu_ (admission and completion touch it
  // on the same paths that touch the queue).
  bool qos_enabled_ = false;
  std::vector<Tenant> tenants_;
  std::map<std::string, size_t> tenant_by_key_;
  size_t default_tenant_ = size_t(-1);
  /// Serialized requests (api_key stripped) that completed OK — the
  /// warmth signal of the shed ordering. Bounded; cleared when large.
  std::set<std::string> warm_keys_;

  /// Counters + histograms; see metrics.h. Declared after the maps it
  /// aggregates from in SnapshotMetrics, destroyed after the sessions
  /// that write into it.
  ServiceMetrics metrics_;

  /// Completed-trace retention (thread-safe; see common/trace.h).
  TraceRing trace_ring_;
  /// Mints request ids ("q-000001", ...); starts at 1.
  std::atomic<uint64_t> next_request_id_{1};

  std::vector<std::thread> sessions_;
};

}  // namespace modis

#endif  // MODIS_SERVICE_DISCOVERY_SERVICE_H_
