#include "service/wire.h"

#include <cmath>
#include <utility>

#include "service/json.h"
#include "service/qos.h"

namespace modis {

namespace {

/// Reads a non-negative integer member from untrusted input. Absent (or
/// non-number) members keep `fallback`; present ones must be finite
/// integers in [0, max] — a negative or huge double cast straight to an
/// unsigned type would be undefined behavior, so validation happens
/// before any cast.
Result<uint64_t> GetCount(const JsonValue& doc, const char* key,
                          uint64_t fallback, uint64_t max) {
  const JsonValue* v = doc.Get(key);
  if (v == nullptr || !v->is_number()) return fallback;
  const double n = v->AsNumber();
  if (!std::isfinite(n) || n < 0.0 || n > double(max) ||
      std::nearbyint(n) != n) {
    return Status::InvalidArgument(std::string("\"") + key +
                                   "\" must be an integer in [0, " +
                                   std::to_string(max) + "]");
  }
  return uint64_t(n);
}

JsonValue::Array NumbersToJson(const std::vector<double>& values) {
  JsonValue::Array array;
  array.reserve(values.size());
  for (double v : values) array.emplace_back(v);
  return array;
}

JsonValue::Array StringsToJson(const std::vector<std::string>& values) {
  JsonValue::Array array;
  array.reserve(values.size());
  for (const std::string& v : values) array.emplace_back(v);
  return array;
}

std::vector<double> NumbersFromJson(const JsonValue& value) {
  std::vector<double> out;
  if (!value.is_array()) return out;
  for (const JsonValue& v : value.AsArray()) {
    if (v.is_number()) out.push_back(v.AsNumber());
  }
  return out;
}

}  // namespace

Result<DiscoveryRequest> ParseDiscoveryRequest(const std::string& text) {
  MODIS_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  DiscoveryRequest request;
  request.task = doc.GetString("task", "");
  if (request.task.empty()) {
    return Status::InvalidArgument("request is missing \"task\"");
  }
  request.variant = doc.GetString("variant", request.variant);
  request.oracle = doc.GetString("oracle", request.oracle);
  if (const JsonValue* measures = doc.Get("measures");
      measures != nullptr && measures->is_array()) {
    for (const JsonValue& m : measures->AsArray()) {
      if (!m.is_string()) {
        return Status::InvalidArgument("\"measures\" must be strings");
      }
      request.measures.push_back(m.AsString());
    }
  }
  request.epsilon = doc.GetNumber("epsilon", request.epsilon);
  if (!std::isfinite(request.epsilon) || request.epsilon <= 0.0 ||
      request.epsilon > 100.0) {
    return Status::InvalidArgument("\"epsilon\" must be in (0, 100]");
  }
  {
    MODIS_ASSIGN_OR_RETURN(
        const uint64_t budget,
        GetCount(doc, "budget", request.budget, 100'000'000));
    request.budget = size_t(budget);
    MODIS_ASSIGN_OR_RETURN(const uint64_t maxl,
                           GetCount(doc, "maxl", uint64_t(request.maxl),
                                    100'000));
    request.maxl = int(maxl);
    MODIS_ASSIGN_OR_RETURN(const uint64_t k,
                           GetCount(doc, "k", request.k, 100'000'000));
    request.k = size_t(k);
    MODIS_ASSIGN_OR_RETURN(
        request.seed,
        GetCount(doc, "seed", request.seed, uint64_t(1) << 53));
  }
  request.alpha = doc.GetNumber("alpha", request.alpha);
  if (!std::isfinite(request.alpha) || request.alpha < 0.0 ||
      request.alpha > 1.0) {
    return Status::InvalidArgument("\"alpha\" must be in [0, 1]");
  }
  request.cache_path = doc.GetString("cache", request.cache_path);
  request.cache_mode = doc.GetString("cache_mode", request.cache_mode);
  request.cache_namespace =
      doc.GetString("namespace", request.cache_namespace);
  request.api_key = doc.GetString("api_key", request.api_key);
  request.trace = doc.GetBool("trace", request.trace);
  return request;
}

std::string SerializeDiscoveryRequest(const DiscoveryRequest& request) {
  JsonValue doc{JsonValue::Object{}};
  doc.Set("task", request.task);
  doc.Set("variant", request.variant);
  doc.Set("oracle", request.oracle);
  if (!request.measures.empty()) {
    doc.Set("measures", StringsToJson(request.measures));
  }
  doc.Set("epsilon", request.epsilon);
  doc.Set("budget", request.budget);
  doc.Set("maxl", request.maxl);
  doc.Set("k", request.k);
  doc.Set("alpha", request.alpha);
  if (!request.cache_path.empty()) doc.Set("cache", request.cache_path);
  if (!request.cache_mode.empty()) {
    doc.Set("cache_mode", request.cache_mode);
  }
  if (!request.cache_namespace.empty()) {
    doc.Set("namespace", request.cache_namespace);
  }
  if (!request.api_key.empty()) doc.Set("api_key", request.api_key);
  // Emitted only when set so traced and untraced requests serialize to
  // the same bytes otherwise — the warm-key / shed fingerprints that hash
  // serialized requests stay stable.
  if (request.trace) doc.Set("trace", true);
  doc.Set("seed", double(request.seed));
  return doc.Dump();
}

namespace {

/// One TraceSpan as a wire object. Spans still open when snapshotted
/// carry duration_ms < 0 internally; the wire clamps to 0 so consumers
/// never see a negative duration.
JsonValue SpanToJson(const TraceSpan& span) {
  JsonValue doc{JsonValue::Object{}};
  doc.Set("id", span.id);
  doc.Set("name", span.name);
  doc.Set("parent", span.parent);
  doc.Set("start_ms", span.start_ms);
  doc.Set("duration_ms", span.duration_ms < 0.0 ? 0.0 : span.duration_ms);
  if (!span.attrs.empty()) {
    JsonValue attrs{JsonValue::Object{}};
    for (const auto& [key, value] : span.attrs) {
      attrs.Set(key, double(value));
    }
    doc.Set("attrs", std::move(attrs));
  }
  return doc;
}

JsonValue::Array SpansToJson(const std::vector<TraceSpan>& spans) {
  JsonValue::Array array;
  array.reserve(spans.size());
  for (const TraceSpan& span : spans) array.push_back(SpanToJson(span));
  return array;
}

}  // namespace

std::string SerializeDiscoveryResponse(const DiscoveryResponse& response) {
  JsonValue doc{JsonValue::Object{}};
  doc.Set("ok", true);
  doc.Set("request_id", response.request_id);
  doc.Set("task", response.task);
  doc.Set("variant", response.variant);
  doc.Set("measures", StringsToJson(response.measure_names));
  JsonValue::Array skyline;
  skyline.reserve(response.skyline.size());
  for (const DiscoverySkylineRow& row : response.skyline) {
    JsonValue entry{JsonValue::Object{}};
    entry.Set("signature", row.signature);
    entry.Set("level", row.level);
    entry.Set("rows", row.rows);
    entry.Set("cols", row.cols);
    entry.Set("raw", NumbersToJson(row.raw));
    entry.Set("normalized", NumbersToJson(row.normalized));
    skyline.push_back(std::move(entry));
  }
  doc.Set("skyline", std::move(skyline));
  JsonValue stats{JsonValue::Object{}};
  stats.Set("valuated_states", response.valuated_states);
  stats.Set("generated_states", response.generated_states);
  stats.Set("pruned_states", response.pruned_states);
  stats.Set("exact_evals", response.exact_evals);
  stats.Set("persistent_hits", response.persistent_hits);
  stats.Set("surrogate_evals", response.surrogate_evals);
  stats.Set("cache_hits", response.cache_hits);
  stats.Set("failed_evals", response.failed_evals);
  stats.Set("fused_hits", response.fused_hits);
  stats.Set("cache_active", response.cache_active);
  stats.Set("queue_ms", response.queue_ms);
  stats.Set("run_ms", response.run_ms);
  stats.Set("total_ms", response.total_ms);
  doc.Set("stats", std::move(stats));
  // Inline span tree, present only when the request opted in with
  // `"trace":true` (docs/OBSERVABILITY.md §3).
  if (!response.trace_spans.empty()) {
    doc.Set("trace", SpansToJson(response.trace_spans));
  }
  return doc.Dump();
}

std::string SerializeDiscoveryError(const Status& status) {
  JsonValue doc{JsonValue::Object{}};
  doc.Set("ok", false);
  doc.Set("code", StatusCodeName(status.code()));
  doc.Set("error", status.message());
  // QoS rejections carry a machine-readable retry hint; surface it as a
  // member so clients need not parse the message.
  if (const double retry_after = RetryAfterSeconds(status);
      retry_after > 0.0) {
    doc.Set("retry_after_s", retry_after);
  }
  return doc.Dump();
}

namespace {

JsonValue HistogramToJson(const LatencyHistogram::Snapshot& h) {
  JsonValue doc{JsonValue::Object{}};
  doc.Set("count", h.count);
  doc.Set("sum_ms", h.sum_ms);
  doc.Set("max_ms", h.max_ms);
  doc.Set("p50_ms", h.QuantileMs(0.50));
  doc.Set("p90_ms", h.QuantileMs(0.90));
  doc.Set("p99_ms", h.QuantileMs(0.99));
  // Sparse bucket list: [upper_bound_ms, count] for non-empty buckets.
  JsonValue::Array buckets;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    JsonValue::Array bucket;
    bucket.emplace_back(LatencyHistogram::BucketBoundMs(i));
    bucket.emplace_back(h.buckets[i]);
    buckets.emplace_back(std::move(bucket));
  }
  doc.Set("buckets_le_ms", std::move(buckets));
  return doc;
}

}  // namespace

std::string SerializeServiceMetrics(const MetricsSnapshot& snapshot) {
  JsonValue metrics{JsonValue::Object{}};
  // One descriptor table drives this JSON and the Prometheus exposition
  // (service/http.cc), so the two surfaces cannot drift apart — the
  // parity contract tests/http_test.cc pins down.
  for (const ScalarMetricDesc& desc : ScalarMetricDescriptors()) {
    metrics.Set(desc.json_name, snapshot.*desc.field);
  }
  metrics.Set("draining", snapshot.draining);
  if (!snapshot.tenants.empty()) {
    JsonValue::Array tenants;
    tenants.reserve(snapshot.tenants.size());
    for (const TenantMetricsSnapshot& tenant : snapshot.tenants) {
      JsonValue entry{JsonValue::Object{}};
      entry.Set("name", tenant.name);
      entry.Set("priority", tenant.priority);
      for (const TenantMetricDesc& desc : TenantMetricDescriptors()) {
        entry.Set(desc.json_name, tenant.*desc.field);
      }
      tenants.push_back(std::move(entry));
    }
    metrics.Set("tenants", std::move(tenants));
  }
  if (!snapshot.workers.empty()) {
    JsonValue::Array workers;
    workers.reserve(snapshot.workers.size());
    for (const WorkerMetricsSnapshot& worker : snapshot.workers) {
      JsonValue entry{JsonValue::Object{}};
      entry.Set("index", static_cast<uint64_t>(worker.index));
      for (const WorkerMetricDesc& desc : WorkerMetricDescriptors()) {
        entry.Set(desc.json_name, worker.*desc.field);
      }
      workers.push_back(std::move(entry));
    }
    metrics.Set("workers", std::move(workers));
  }
  for (const HistogramMetricDesc& desc : HistogramMetricDescriptors()) {
    metrics.Set(desc.json_name, HistogramToJson(snapshot.*desc.field));
  }
  JsonValue doc{JsonValue::Object{}};
  doc.Set("ok", true);
  doc.Set("metrics", std::move(metrics));
  return doc.Dump();
}

std::string SerializeTraceDebug(const std::vector<Trace>& slowest,
                                const std::vector<Trace>& recent) {
  JsonValue::Array events;
  // One process per retained trace, pid = the host-unique request
  // sequence, so a trace in both sets (slow AND recent) folds onto one
  // timeline instead of rendering twice.
  std::vector<const Trace*> traces;
  traces.reserve(slowest.size() + recent.size());
  for (const Trace& t : slowest) traces.push_back(&t);
  for (const Trace& t : recent) {
    bool seen = false;
    for (const Trace& s : slowest) seen = seen || s.sequence == t.sequence;
    if (!seen) traces.push_back(&t);
  }
  for (const Trace* trace : traces) {
    const size_t pid = size_t(trace->sequence);
    JsonValue meta{JsonValue::Object{}};
    meta.Set("name", "process_name");
    meta.Set("ph", "M");
    meta.Set("pid", pid);
    JsonValue meta_args{JsonValue::Object{}};
    meta_args.Set("name", trace->request_id + " " + trace->task +
                              (trace->tenant.empty()
                                   ? std::string()
                                   : " [" + trace->tenant + "]"));
    meta.Set("args", std::move(meta_args));
    events.push_back(std::move(meta));
    for (const TraceSpan& span : trace->spans) {
      JsonValue event{JsonValue::Object{}};
      event.Set("name", span.name);
      event.Set("ph", "X");
      event.Set("pid", pid);
      // One track per span keeps concurrent "exact" spans from
      // overlapping on a shared row, which trace viewers reject.
      event.Set("tid", span.id);
      event.Set("ts", span.start_ms * 1000.0);
      event.Set("dur",
                span.duration_ms < 0.0 ? 0.0 : span.duration_ms * 1000.0);
      JsonValue args{JsonValue::Object{}};
      args.Set("parent", span.parent);
      for (const auto& [key, value] : span.attrs) {
        args.Set(key, double(value));
      }
      event.Set("args", std::move(args));
      events.push_back(std::move(event));
    }
  }
  JsonValue doc{JsonValue::Object{}};
  doc.Set("ok", true);
  doc.Set("traceEvents", std::move(events));
  return doc.Dump();
}

Result<DiscoveryResponse> ParseDiscoveryResponse(const std::string& text) {
  MODIS_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  if (!doc.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  if (!doc.GetBool("ok", false)) {
    StatusCode code = StatusCodeFromName(doc.GetString("code", "Internal"));
    if (code == StatusCode::kOk) code = StatusCode::kInternal;
    return Status(code, doc.GetString("error", "malformed error response"));
  }
  DiscoveryResponse response;
  response.request_id = doc.GetString("request_id", "");
  response.task = doc.GetString("task", "");
  response.variant = doc.GetString("variant", "");
  if (const JsonValue* measures = doc.Get("measures");
      measures != nullptr && measures->is_array()) {
    for (const JsonValue& m : measures->AsArray()) {
      if (m.is_string()) response.measure_names.push_back(m.AsString());
    }
  }
  if (const JsonValue* skyline = doc.Get("skyline");
      skyline != nullptr && skyline->is_array()) {
    for (const JsonValue& entry : skyline->AsArray()) {
      DiscoverySkylineRow row;
      row.signature = entry.GetString("signature", "");
      row.level = static_cast<int>(entry.GetNumber("level", 0));
      row.rows = static_cast<size_t>(entry.GetNumber("rows", 0));
      row.cols = static_cast<size_t>(entry.GetNumber("cols", 0));
      if (const JsonValue* raw = entry.Get("raw")) {
        row.raw = NumbersFromJson(*raw);
      }
      if (const JsonValue* normalized = entry.Get("normalized")) {
        row.normalized = NumbersFromJson(*normalized);
      }
      response.skyline.push_back(std::move(row));
    }
  }
  if (const JsonValue* stats = doc.Get("stats");
      stats != nullptr && stats->is_object()) {
    response.valuated_states =
        static_cast<size_t>(stats->GetNumber("valuated_states", 0));
    response.generated_states =
        static_cast<size_t>(stats->GetNumber("generated_states", 0));
    response.pruned_states =
        static_cast<size_t>(stats->GetNumber("pruned_states", 0));
    response.exact_evals =
        static_cast<size_t>(stats->GetNumber("exact_evals", 0));
    response.persistent_hits =
        static_cast<size_t>(stats->GetNumber("persistent_hits", 0));
    response.surrogate_evals =
        static_cast<size_t>(stats->GetNumber("surrogate_evals", 0));
    response.cache_hits =
        static_cast<size_t>(stats->GetNumber("cache_hits", 0));
    response.failed_evals =
        static_cast<size_t>(stats->GetNumber("failed_evals", 0));
    response.fused_hits =
        static_cast<size_t>(stats->GetNumber("fused_hits", 0));
    response.cache_active = stats->GetBool("cache_active", false);
    response.queue_ms = stats->GetNumber("queue_ms", 0.0);
    response.run_ms = stats->GetNumber("run_ms", 0.0);
    response.total_ms = stats->GetNumber("total_ms", 0.0);
  }
  if (const JsonValue* trace = doc.Get("trace");
      trace != nullptr && trace->is_array()) {
    for (const JsonValue& entry : trace->AsArray()) {
      TraceSpan span;
      span.name = entry.GetString("name", "");
      span.id = static_cast<SpanId>(entry.GetNumber("id", kNoSpan));
      span.parent =
          static_cast<SpanId>(entry.GetNumber("parent", kNoSpan));
      span.start_ms = entry.GetNumber("start_ms", 0.0);
      span.duration_ms = entry.GetNumber("duration_ms", 0.0);
      if (const JsonValue* attrs = entry.Get("attrs");
          attrs != nullptr && attrs->is_object()) {
        for (const auto& [key, value] : attrs->AsObject()) {
          if (value.is_number()) {
            span.attrs.emplace_back(key,
                                    static_cast<int64_t>(value.AsNumber()));
          }
        }
      }
      response.trace_spans.push_back(std::move(span));
    }
  }
  return response;
}

}  // namespace modis
