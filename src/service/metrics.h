#ifndef MODIS_SERVICE_METRICS_H_
#define MODIS_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace modis {

/// Fixed-bucket latency histogram. Bucket i covers latencies up to
/// 0.25 * 2^i milliseconds (0.25 ms .. ~35 min); the last bucket absorbs
/// everything beyond. Thread-safe: Record() and snapshot() take one
/// internal mutex, which is fine at the per-query (not per-training)
/// granularity the service records at.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 24;

  /// Upper bound (ms) of bucket `i`.
  static double BucketBoundMs(size_t i) { return 0.25 * double(1u << i); }

  struct Snapshot {
    uint64_t count = 0;
    double sum_ms = 0.0;
    double max_ms = 0.0;
    std::array<uint64_t, kBuckets> buckets{};

    /// Upper-bound estimate of the q-quantile (q in [0,1]): the bound of
    /// the first bucket whose cumulative count reaches q * count. The
    /// last bucket reports the exact observed max.
    double QuantileMs(double q) const;
  };

  void Record(double ms);
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  Snapshot data_;
};

/// Per-tenant admission counters (QoS; docs/SERVING.md §7). Collected by
/// DiscoveryService::SnapshotMetrics() from the tenant table; exported as
/// the `modis_tenant_*{tenant="..."}` Prometheus series and the
/// `"tenants"` array of the shutdown dump.
struct TenantMetricsSnapshot {
  std::string name;
  int priority = 0;
  uint64_t admitted = 0;
  uint64_t rate_limited = 0;
  uint64_t quota_rejected = 0;
  uint64_t shed = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t in_flight = 0;  // Gauge: queued + executing.
};

/// Per-worker-process counters (multi-process mode; docs/MULTIPROCESS.md).
/// Filled by the coordinator from the job ring's per-worker tallies and
/// the pool supervisor's restart ledger; exported as the
/// `modis_worker_*{worker="..."}` Prometheus series and the `"workers"`
/// array of the shutdown dump. Empty in the in-process (`--workers 0`)
/// mode.
struct WorkerMetricsSnapshot {
  uint32_t index = 0;
  uint64_t alive = 0;  // Gauge: 1 when the process is currently running.
  uint64_t restarts = 0;
  uint64_t jobs_claimed = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_requeued = 0;
};

/// One flat snapshot of everything the service exports — the schema of
/// GET /metrics and the shutdown dump (docs/SERVING.md §5). Counter
/// fields are filled from ServiceMetrics; the gauges only the service can
/// compute (queue depth, live contexts, cache totals) are filled by
/// DiscoveryService::SnapshotMetrics().
struct MetricsSnapshot {
  // Admission.
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t served = 0;
  uint64_t failed = 0;
  uint64_t queue_depth = 0;  // Gauge.

  // Task contexts.
  uint64_t live_contexts = 0;  // Gauge.

  // Shared record caches, aggregated over every open cache file.
  uint64_t cache_files = 0;        // Gauge.
  uint64_t cache_bytes = 0;        // Gauge: valid log bytes.
  uint64_t cache_records = 0;      // Gauge: records loaded at open.
  uint64_t cache_replays = 0;      // Get/Find hits served.
  uint64_t cache_appends = 0;
  uint64_t cache_evictions = 0;
  /// Bytes returned by cache log rewrites this session.
  uint64_t cache_reclaimed_bytes = 0;

  // Cross-query exact-training fusion.
  /// Queries that consumed at least one fused training.
  uint64_t queries_fused = 0;
  /// Exact trainings consumed from another query's identical concurrent
  /// (or just-finished) training instead of re-executed.
  uint64_t trainings_shared = 0;

  // Transport (filled by HttpServer when one is attached).
  uint64_t connections_opened = 0;
  uint64_t connections_active = 0;  // Gauge.
  uint64_t dropped_connections = 0;

  // HTTP front door (service/http.h, served by the same HttpServer).
  uint64_t http_requests = 0;
  /// 4xx/5xx responses, parse failures included.
  uint64_t http_errors = 0;

  // Multi-tenant QoS admission (aggregates over every tenant).
  uint64_t qos_rate_limited = 0;
  uint64_t qos_quota_rejected = 0;
  /// Admitted-then-shed plus rejected-at-full-queue requests.
  uint64_t qos_shed = 0;

  // Multi-process worker pool (zero in in-process mode). Overlaid onto
  // the snapshot by the coordinator, not by ServiceMetrics.
  uint64_t worker_processes = 0;  // Gauge: configured pool size.
  uint64_t worker_restarts = 0;
  uint64_t ring_installed = 0;
  uint64_t ring_shed = 0;
  uint64_t ring_requeued = 0;
  uint64_t ring_poisoned = 0;
  uint64_t ring_owner_deaths = 0;
  uint64_t ring_depth = 0;     // Gauge: jobs ready and unclaimed.
  uint64_t ring_inflight = 0;  // Gauge: jobs claimed by a worker.

  bool draining = false;

  // Per-phase latency distributions (one query each).
  LatencyHistogram::Snapshot queue_ms;
  LatencyHistogram::Snapshot run_ms;
  LatencyHistogram::Snapshot total_ms;

  // Trace-derived phase distributions: per query, the summed duration of
  // all spans of that name in its trace (docs/OBSERVABILITY.md). Fed by
  // the session loop from the completed span tree, so Prometheus
  // `modis_phase_*` agrees with `/v1/debug/traces` by construction.
  LatencyHistogram::Snapshot phase_admission_ms;
  LatencyHistogram::Snapshot phase_context_ms;
  LatencyHistogram::Snapshot phase_plan_ms;
  LatencyHistogram::Snapshot phase_train_ms;
  LatencyHistogram::Snapshot phase_commit_ms;
  LatencyHistogram::Snapshot phase_flush_ms;
  LatencyHistogram::Snapshot phase_respond_ms;

  /// One entry per configured tenant (empty when QoS is off).
  std::vector<TenantMetricsSnapshot> tenants;

  /// One entry per worker process (empty in in-process mode).
  std::vector<WorkerMetricsSnapshot> workers;
};

/// Descriptor of one scalar MetricsSnapshot field, binding its wire-JSON
/// member name to its Prometheus series name. Both exports iterate this
/// one table, so the exposition-parity contract (every counter present on
/// both surfaces, value-for-value) holds by construction — the property
/// tests/http_test.cc pins down.
struct ScalarMetricDesc {
  const char* json_name;
  const char* prom_name;
  /// Prometheus metric type: true = counter, false = gauge.
  bool counter;
  uint64_t MetricsSnapshot::*field;
  const char* help;
};

/// Every scalar (non-histogram, non-tenant, non-bool) snapshot field.
const std::vector<ScalarMetricDesc>& ScalarMetricDescriptors();

/// Same contract for the per-tenant counters (priority is exported
/// separately: it is an int, not a uint64_t counter).
struct TenantMetricDesc {
  const char* json_name;
  const char* prom_name;
  bool counter;
  uint64_t TenantMetricsSnapshot::*field;
  const char* help;
};

const std::vector<TenantMetricDesc>& TenantMetricDescriptors();

/// Same contract for the per-worker counters (the worker index is the
/// label, exported separately).
struct WorkerMetricDesc {
  const char* json_name;
  const char* prom_name;
  bool counter;
  uint64_t WorkerMetricsSnapshot::*field;
  const char* help;
};

const std::vector<WorkerMetricDesc>& WorkerMetricDescriptors();

/// Same contract for the latency histograms: one table binding each
/// histogram's wire-JSON member name to its Prometheus series prefix
/// (`<prom_name>_bucket/_sum/_count`), iterated by both exports and the
/// parity test.
struct HistogramMetricDesc {
  const char* json_name;
  const char* prom_name;
  LatencyHistogram::Snapshot MetricsSnapshot::*field;
  const char* help;
};

const std::vector<HistogramMetricDesc>& HistogramMetricDescriptors();

/// The shared counter registry. The DiscoveryService owns one; the
/// transport layer (HttpServer) and the session loops both write into it
/// lock-free. Gauges live with their owners and are collected into the
/// snapshot by DiscoveryService::SnapshotMetrics().
class ServiceMetrics {
 public:
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};

  std::atomic<uint64_t> queries_fused{0};
  std::atomic<uint64_t> trainings_shared{0};

  std::atomic<uint64_t> connections_opened{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> dropped_connections{0};

  std::atomic<uint64_t> http_requests{0};
  std::atomic<uint64_t> http_errors{0};

  std::atomic<uint64_t> qos_rate_limited{0};
  std::atomic<uint64_t> qos_quota_rejected{0};
  std::atomic<uint64_t> qos_shed{0};

  std::atomic<bool> draining{false};

  LatencyHistogram queue_ms;
  LatencyHistogram run_ms;
  LatencyHistogram total_ms;

  // Trace-derived per-phase histograms (see MetricsSnapshot).
  LatencyHistogram phase_admission_ms;
  LatencyHistogram phase_context_ms;
  LatencyHistogram phase_plan_ms;
  LatencyHistogram phase_train_ms;
  LatencyHistogram phase_commit_ms;
  LatencyHistogram phase_flush_ms;
  LatencyHistogram phase_respond_ms;

  /// Copies every counter and histogram; gauges are left zero for the
  /// caller to fill.
  MetricsSnapshot Snapshot() const;
};

}  // namespace modis

#endif  // MODIS_SERVICE_METRICS_H_
