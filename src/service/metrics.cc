#include "service/metrics.h"

#include <algorithm>

namespace modis {

double LatencyHistogram::Snapshot::QuantileMs(double q) const {
  if (count == 0) return 0.0;
  const double target = q * double(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (double(cumulative) >= target) {
      return i + 1 == kBuckets ? max_ms
                               : std::min(BucketBoundMs(i), max_ms);
    }
  }
  return max_ms;
}

void LatencyHistogram::Record(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++data_.count;
  data_.sum_ms += ms;
  data_.max_ms = std::max(data_.max_ms, ms);
  size_t bucket = 0;
  while (bucket + 1 < kBuckets && ms > BucketBoundMs(bucket)) ++bucket;
  ++data_.buckets[bucket];
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

const std::vector<ScalarMetricDesc>& ScalarMetricDescriptors() {
  static const std::vector<ScalarMetricDesc> kDescriptors = {
      {"accepted", "modis_accepted_total", true, &MetricsSnapshot::accepted,
       "Requests admitted to the queue."},
      {"rejected", "modis_rejected_total", true, &MetricsSnapshot::rejected,
       "Requests rejected at the door (rate/quota/queue)."},
      {"served", "modis_served_total", true, &MetricsSnapshot::served,
       "Queries completed OK."},
      {"failed", "modis_failed_total", true, &MetricsSnapshot::failed,
       "Queries completed with an error."},
      {"queue_depth", "modis_queue_depth", false,
       &MetricsSnapshot::queue_depth, "Requests waiting for a session."},
      {"live_contexts", "modis_live_contexts", false,
       &MetricsSnapshot::live_contexts, "Task contexts held in memory."},
      {"cache_files", "modis_cache_files", false,
       &MetricsSnapshot::cache_files, "Open record-cache files."},
      {"cache_bytes", "modis_cache_bytes", false,
       &MetricsSnapshot::cache_bytes, "Valid bytes across open caches."},
      {"cache_records", "modis_cache_records", false,
       &MetricsSnapshot::cache_records, "Records loaded at cache open."},
      {"cache_replays", "modis_cache_replays_total", true,
       &MetricsSnapshot::cache_replays, "Record-cache hits served."},
      {"cache_appends", "modis_cache_appends_total", true,
       &MetricsSnapshot::cache_appends, "Records appended to caches."},
      {"cache_evictions", "modis_cache_evictions_total", true,
       &MetricsSnapshot::cache_evictions, "Records evicted from caches."},
      {"cache_reclaimed_bytes", "modis_cache_reclaimed_bytes_total", true,
       &MetricsSnapshot::cache_reclaimed_bytes,
       "Bytes reclaimed by cache compaction."},
      {"queries_fused", "modis_queries_fused_total", true,
       &MetricsSnapshot::queries_fused,
       "Queries that consumed at least one fused training."},
      {"trainings_shared", "modis_trainings_shared_total", true,
       &MetricsSnapshot::trainings_shared,
       "Exact trainings consumed from another query."},
      {"connections_opened", "modis_connections_opened_total", true,
       &MetricsSnapshot::connections_opened, "Connections accepted."},
      {"connections_active", "modis_connections_active", false,
       &MetricsSnapshot::connections_active, "Connections being served."},
      {"dropped_connections", "modis_dropped_connections_total", true,
       &MetricsSnapshot::dropped_connections,
       "Connections lost mid-request or mid-response."},
      {"http_requests", "modis_http_requests_total", true,
       &MetricsSnapshot::http_requests, "HTTP requests parsed."},
      {"http_errors", "modis_http_errors_total", true,
       &MetricsSnapshot::http_errors,
       "HTTP 4xx/5xx responses, parse failures included."},
      {"qos_rate_limited", "modis_qos_rate_limited_total", true,
       &MetricsSnapshot::qos_rate_limited,
       "Requests rejected by a tenant token bucket."},
      {"qos_quota_rejected", "modis_qos_quota_rejected_total", true,
       &MetricsSnapshot::qos_quota_rejected,
       "Requests rejected by a tenant in-flight quota."},
      {"qos_shed", "modis_qos_shed_total", true, &MetricsSnapshot::qos_shed,
       "Requests shed under overload (queued victims + full-queue "
       "rejections)."},
      {"worker_processes", "modis_worker_processes", false,
       &MetricsSnapshot::worker_processes,
       "Configured worker-process pool size (0 = in-process mode)."},
      {"worker_restarts", "modis_worker_restarts_total", true,
       &MetricsSnapshot::worker_restarts,
       "Worker processes respawned after an exit or crash."},
      {"ring_installed", "modis_ring_installed_total", true,
       &MetricsSnapshot::ring_installed,
       "Jobs installed into the shared-memory ring."},
      {"ring_shed", "modis_ring_shed_total", true,
       &MetricsSnapshot::ring_shed, "Jobs shed because the ring was full."},
      {"ring_requeued", "modis_ring_requeued_total", true,
       &MetricsSnapshot::ring_requeued,
       "Jobs requeued after their worker died mid-claim."},
      {"ring_poisoned", "modis_ring_poisoned_total", true,
       &MetricsSnapshot::ring_poisoned,
       "Jobs poisoned after max_attempts crashed claims."},
      {"ring_owner_deaths", "modis_ring_owner_deaths_total", true,
       &MetricsSnapshot::ring_owner_deaths,
       "Robust-mutex owner-death recoveries on the ring."},
      {"ring_depth", "modis_ring_depth", false, &MetricsSnapshot::ring_depth,
       "Jobs installed in the ring and not yet claimed."},
      {"ring_inflight", "modis_ring_inflight", false,
       &MetricsSnapshot::ring_inflight,
       "Jobs currently claimed by a worker."},
  };
  return kDescriptors;
}

const std::vector<TenantMetricDesc>& TenantMetricDescriptors() {
  static const std::vector<TenantMetricDesc> kDescriptors = {
      {"admitted", "modis_tenant_admitted_total", true,
       &TenantMetricsSnapshot::admitted, "Requests admitted."},
      {"rate_limited", "modis_tenant_rate_limited_total", true,
       &TenantMetricsSnapshot::rate_limited, "Token-bucket rejections."},
      {"quota_rejected", "modis_tenant_quota_rejected_total", true,
       &TenantMetricsSnapshot::quota_rejected,
       "In-flight quota rejections."},
      {"shed", "modis_tenant_shed_total", true,
       &TenantMetricsSnapshot::shed, "Requests shed under overload."},
      {"served", "modis_tenant_served_total", true,
       &TenantMetricsSnapshot::served, "Queries completed OK."},
      {"failed", "modis_tenant_failed_total", true,
       &TenantMetricsSnapshot::failed, "Queries completed with an error."},
      {"in_flight", "modis_tenant_in_flight", false,
       &TenantMetricsSnapshot::in_flight, "Queued + executing requests."},
  };
  return kDescriptors;
}

const std::vector<WorkerMetricDesc>& WorkerMetricDescriptors() {
  static const std::vector<WorkerMetricDesc> kDescriptors = {
      {"alive", "modis_worker_alive", false, &WorkerMetricsSnapshot::alive,
       "Whether the worker process is currently running (0/1)."},
      {"restarts", "modis_worker_restarts", true,
       &WorkerMetricsSnapshot::restarts,
       "Times this worker slot was respawned."},
      {"jobs_claimed", "modis_worker_jobs_claimed_total", true,
       &WorkerMetricsSnapshot::jobs_claimed,
       "Ring jobs claimed by this worker."},
      {"jobs_completed", "modis_worker_jobs_completed_total", true,
       &WorkerMetricsSnapshot::jobs_completed,
       "Ring jobs this worker finished (OK or failed)."},
      {"jobs_requeued", "modis_worker_jobs_requeued_total", true,
       &WorkerMetricsSnapshot::jobs_requeued,
       "Ring jobs requeued because this worker died holding them."},
  };
  return kDescriptors;
}

const std::vector<HistogramMetricDesc>& HistogramMetricDescriptors() {
  static const std::vector<HistogramMetricDesc> kDescriptors = {
      {"queue_ms", "modis_queue_ms", &MetricsSnapshot::queue_ms,
       "Admission-queue wait per query (ms)."},
      {"run_ms", "modis_run_ms", &MetricsSnapshot::run_ms,
       "Engine running time per query (ms)."},
      {"total_ms", "modis_total_ms", &MetricsSnapshot::total_ms,
       "Queue + run time per query (ms)."},
      {"phase_admission_ms", "modis_phase_admission_ms",
       &MetricsSnapshot::phase_admission_ms,
       "Trace-derived admission-span time per query (ms)."},
      {"phase_context_ms", "modis_phase_context_ms",
       &MetricsSnapshot::phase_context_ms,
       "Trace-derived task-context time per query (ms)."},
      {"phase_plan_ms", "modis_phase_plan_ms",
       &MetricsSnapshot::phase_plan_ms,
       "Trace-derived batch-planning time per query (ms)."},
      {"phase_train_ms", "modis_phase_train_ms",
       &MetricsSnapshot::phase_train_ms,
       "Trace-derived exact-training fan-out time per query (ms)."},
      {"phase_commit_ms", "modis_phase_commit_ms",
       &MetricsSnapshot::phase_commit_ms,
       "Trace-derived batch-commit time per query (ms)."},
      {"phase_flush_ms", "modis_phase_flush_ms",
       &MetricsSnapshot::phase_flush_ms,
       "Trace-derived cache-flush time per query (ms)."},
      {"phase_respond_ms", "modis_phase_respond_ms",
       &MetricsSnapshot::phase_respond_ms,
       "Trace-derived response-write time per query (ms)."},
  };
  return kDescriptors;
}

MetricsSnapshot ServiceMetrics::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.accepted = accepted.load();
  snapshot.rejected = rejected.load();
  snapshot.served = served.load();
  snapshot.failed = failed.load();
  snapshot.queries_fused = queries_fused.load();
  snapshot.trainings_shared = trainings_shared.load();
  snapshot.connections_opened = connections_opened.load();
  snapshot.connections_active = connections_active.load();
  snapshot.dropped_connections = dropped_connections.load();
  snapshot.http_requests = http_requests.load();
  snapshot.http_errors = http_errors.load();
  snapshot.qos_rate_limited = qos_rate_limited.load();
  snapshot.qos_quota_rejected = qos_quota_rejected.load();
  snapshot.qos_shed = qos_shed.load();
  snapshot.draining = draining.load();
  snapshot.queue_ms = queue_ms.snapshot();
  snapshot.run_ms = run_ms.snapshot();
  snapshot.total_ms = total_ms.snapshot();
  snapshot.phase_admission_ms = phase_admission_ms.snapshot();
  snapshot.phase_context_ms = phase_context_ms.snapshot();
  snapshot.phase_plan_ms = phase_plan_ms.snapshot();
  snapshot.phase_train_ms = phase_train_ms.snapshot();
  snapshot.phase_commit_ms = phase_commit_ms.snapshot();
  snapshot.phase_flush_ms = phase_flush_ms.snapshot();
  snapshot.phase_respond_ms = phase_respond_ms.snapshot();
  return snapshot;
}

}  // namespace modis
