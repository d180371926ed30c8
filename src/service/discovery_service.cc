#include "service/discovery_service.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "core/algorithms.h"
#include "estimator/oracle.h"
#include "estimator/supervised_evaluator.h"
#include "service/wire.h"
#include "service/worker.h"

namespace modis {

namespace {

/// Maps the wire task spelling onto a bench task id: "T1".."T4",
/// "case1"/"case2", or the full BenchTaskName ("T2-house", ...).
Result<BenchTaskId> ParseBenchTask(const std::string& name) {
  static constexpr BenchTaskId kAll[] = {
      BenchTaskId::kMovie, BenchTaskId::kHouse,       BenchTaskId::kAvocado,
      BenchTaskId::kMental, BenchTaskId::kXray,       BenchTaskId::kFeaturePool,
  };
  for (BenchTaskId id : kAll) {
    const std::string full = BenchTaskName(id);
    if (name == full) return id;
    const size_t dash = full.find('-');
    if (dash != std::string::npos && name == full.substr(0, dash)) return id;
  }
  return Status::InvalidArgument(
      "unknown task '" + name +
      "' (expected T1..T4, case1, case2, or a full bench task name)");
}

/// The task's measure set filtered to the requested names, in the task's
/// canonical order (so permuted requests share one fingerprint). An
/// unknown or repeated name is rejected by name.
Result<std::vector<MeasureSpec>> FilterMeasures(
    const std::vector<MeasureSpec>& all,
    const std::vector<std::string>& wanted) {
  if (wanted.empty()) return all;
  std::vector<bool> picked(all.size(), false);
  for (const std::string& name : wanted) {
    size_t i = 0;
    while (i < all.size() && all[i].name != name) ++i;
    if (i == all.size()) {
      std::string known;
      for (const MeasureSpec& m : all) {
        if (!known.empty()) known += ", ";
        known += m.name;
      }
      return Status::InvalidArgument("unknown measure '" + name +
                                     "' (task measures: " + known + ")");
    }
    if (picked[i]) {
      return Status::InvalidArgument("measure '" + name + "' listed twice");
    }
    picked[i] = true;
  }
  std::vector<MeasureSpec> filtered;
  for (size_t i = 0; i < all.size(); ++i) {
    if (picked[i]) filtered.push_back(all[i]);
  }
  return filtered;
}

/// Everything Execute/AnswerDetached share once a universe + evaluator
/// exist: build the oracle + engine, run, flatten the response.
Result<DiscoveryResponse> RunQuery(const DiscoveryRequest& request,
                                   const std::string& canonical_task,
                                   const SearchUniverse& universe,
                                   SupervisedEvaluator* evaluator,
                                   const ModisConfig& config,
                                   ValuationContext context) {
  std::optional<SurrogateOptions> surrogate;
  if (request.oracle == "gbm") {
    surrogate = SurrogateOptions{};
  } else if (request.oracle != "exact") {
    return Status::InvalidArgument("unknown oracle '" + request.oracle +
                                   "' (exact | gbm)");
  }
  PerformanceOracle oracle(evaluator, surrogate);

  WallTimer run_timer;
  ModisEngine engine(&universe, &oracle, config, context);
  MODIS_ASSIGN_OR_RETURN(ModisResult result, engine.Run());

  DiscoveryResponse response;
  response.task = canonical_task;
  response.variant = request.variant;
  for (const MeasureSpec& m : evaluator->measures()) {
    response.measure_names.push_back(m.name);
  }
  for (const SkylineEntry& entry : result.skyline) {
    DiscoverySkylineRow row;
    row.signature = entry.state.Signature();
    row.level = entry.level;
    row.rows = entry.rows;
    row.cols = entry.cols;
    row.raw = entry.eval.raw;
    row.normalized = entry.eval.normalized;
    response.skyline.push_back(std::move(row));
  }
  response.valuated_states = result.valuated_states;
  response.generated_states = result.generated_states;
  response.pruned_states = result.pruned_states;
  response.exact_evals = result.oracle_stats.exact_evals;
  response.persistent_hits = result.oracle_stats.persistent_hits;
  response.surrogate_evals = result.oracle_stats.surrogate_evals;
  response.cache_hits = result.oracle_stats.cache_hits;
  response.failed_evals = result.oracle_stats.failed_evals;
  response.fused_hits = result.oracle_stats.fused_hits;
  response.cache_active = result.record_cache_active;
  response.run_ms = run_timer.Millis();
  return response;
}

/// The warmth key of the shed ordering: the serialized request with the
/// tenant credential and the trace echo flag stripped (warmth is a
/// property of the query, not of who asks it or whether they want the
/// span tree back — a traced query must hit the same warm/shed path as
/// its untraced twin).
std::string WarmKeyOf(const DiscoveryRequest& request) {
  DiscoveryRequest copy = request;
  copy.api_key.clear();
  copy.trace = false;
  return SerializeDiscoveryRequest(copy);
}

ModisConfig ConfigFromRequest(const DiscoveryRequest& request) {
  ModisConfig config;
  config.epsilon = request.epsilon;
  config.max_states = request.budget;
  config.max_level = request.maxl;
  config.diversify_k = request.k;
  config.alpha = request.alpha;
  config.seed = request.seed;
  config.record_cache_namespace = request.cache_namespace;
  return config;
}

}  // namespace

DiscoveryService::DiscoveryService(Options options)
    : DiscoveryService(std::move(options), nullptr) {}

DiscoveryService::DiscoveryService(Options options,
                                   std::unique_ptr<WorkerPool> workers)
    : options_(options),
      // In pool mode the valuation fan-out runs in the workers.
      pool_(workers != nullptr ? 1 : options.valuation_threads),
      workers_(std::move(workers)),
      trace_ring_(options.trace_ring_capacity) {
  qos_enabled_ = !options_.tenants.empty();
  if (qos_enabled_) {
    const auto now = std::chrono::steady_clock::now();
    for (const TenantSpec& spec : options_.tenants) {
      const size_t index = tenants_.size();
      if (!tenant_by_key_.emplace(spec.api_key, index).second) {
        MODIS_LOG(WARN, "service").Tag("tenant", spec.name)
            << "tenant reuses an api key already mapped; ignoring it";
        continue;
      }
      Tenant tenant;
      tenant.spec = spec;
      tenant.tokens = spec.burst;
      tenant.last_refill = now;
      tenants_.push_back(std::move(tenant));
      if (spec.api_key.empty()) default_tenant_ = index;
    }
    if (default_tenant_ == size_t(-1)) {
      // Unknown/absent keys need somewhere to land: an unlimited,
      // priority-0 tenant (configure a spec with an empty api_key to
      // constrain them instead).
      Tenant anonymous;
      anonymous.spec.name = "anonymous";
      anonymous.last_refill = now;
      default_tenant_ = tenants_.size();
      tenants_.push_back(std::move(anonymous));
    }
  }
  // Each pool session holds one ring job at a time, and each worker
  // process executes one job at a time.
  if (workers_ != nullptr) options_.sessions = workers_->workers();
  sessions_.reserve(options_.sessions);
  for (size_t i = 0; i < options_.sessions; ++i) {
    sessions_.emplace_back([this] { SessionLoop(); });
  }
}

DiscoveryService::~DiscoveryService() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& session : sessions_) session.join();
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (auto& [path, cache] : caches_) {
    (void)path;
    const Status flushed = cache->Flush();
    (void)flushed;
  }
}

Status DiscoveryService::Preload(const std::string& tasks) {
  Status first = Status::OK();
  for (const std::string& task : StrSplit(tasks, ',')) {
    if (task.empty()) continue;
    const Status preloaded = GetContext(task).status();
    if (preloaded.ok()) {
      MODIS_LOG(INFO, "service").Tag("task", task) << "preloaded";
    } else {
      MODIS_LOG(WARN, "service").Tag("task", task)
          << "preload failed: " << preloaded.ToString();
      if (first.ok()) first = preloaded;
    }
  }
  return first;
}

Result<const DiscoveryService::TaskContext*> DiscoveryService::GetContext(
    const std::string& task) {
  MODIS_ASSIGN_OR_RETURN(BenchTaskId id, ParseBenchTask(task));
  const std::string canonical = BenchTaskName(id);
  std::lock_guard<std::mutex> lock(context_mu_);
  auto it = contexts_.find(canonical);
  if (it != contexts_.end()) return it->second.get();
  // Build while holding the lock: queries of other tasks wait, which is
  // the simple, predictable behavior a host wants during warm-up
  // (Preload() exists to take this hit before serving).
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(id, options_.task_row_scale));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));
  auto context = std::make_unique<TaskContext>(std::move(bench),
                                               std::move(universe));
  const TaskContext* raw = context.get();
  contexts_.emplace(canonical, std::move(context));
  return raw;
}

Result<PersistentRecordCache*> DiscoveryService::GetCache(
    const DiscoveryRequest& request, CacheMode* effective_mode) {
  CacheMode mode = options_.default_cache_mode;
  if (!request.cache_mode.empty()) {
    MODIS_ASSIGN_OR_RETURN(mode, ParseCacheMode(request.cache_mode));
  }
  *effective_mode = mode;
  if (mode == CacheMode::kOff) return static_cast<PersistentRecordCache*>(
      nullptr);
  const std::string path = request.cache_path.empty()
                               ? options_.default_cache_path
                               : request.cache_path;
  if (path.empty()) {
    *effective_mode = CacheMode::kOff;
    return static_cast<PersistentRecordCache*>(nullptr);
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = caches_.find(path);
  if (it != caches_.end()) {
    // A shared attachment re-reads the file when it changed, so records
    // a sibling worker published since the last query are warm here.
    if (it->second->shared()) (void)it->second->RefreshIfChanged();
    return it->second.get();
  }
  // The host opens every shared cache read-write (it owns the file and
  // the writer lock); per-query kRead is enforced as a no-append view by
  // the engine (ModisConfig::cache_mode sets ValuationContext's
  // write_through). A worker process (no sessions) instead takes a
  // lock-free shared attachment so the whole pool can serve the one file
  // (docs/MULTIPROCESS.md).
  PersistentRecordCache::Options cache_options;
  cache_options.max_bytes = options_.cache_max_bytes;
  auto opened =
      options_.sessions == 0
          ? PersistentRecordCache::OpenShared(path, /*fingerprint=*/0,
                                              cache_options)
          : PersistentRecordCache::Open(path, CacheMode::kReadWrite,
                                        /*fingerprint=*/0, cache_options);
  MODIS_RETURN_IF_ERROR(opened.status());
  PersistentRecordCache* raw = opened.value().get();
  caches_.emplace(path, std::move(opened).value());
  return raw;
}

Result<DiscoveryResponse> DiscoveryService::Execute(
    const DiscoveryRequest& request, TraceRecorder* trace, SpanId root) {
  const SpanId context_span =
      trace != nullptr ? trace->Begin("context", root) : kNoSpan;
  MODIS_ASSIGN_OR_RETURN(const TaskContext* context,
                         GetContext(request.task));
  if (trace != nullptr) trace->End(context_span);

  SupervisedTask task = context->bench.task;
  MODIS_ASSIGN_OR_RETURN(task.measures,
                         FilterMeasures(context->bench.task.measures,
                                        request.measures));
  SupervisedEvaluator evaluator(task, context->bench.model->Clone());

  ModisConfig config = ConfigFromRequest(request);
  MODIS_RETURN_IF_ERROR(ApplyVariantFlags(request.variant, &config));

  CacheMode mode = CacheMode::kOff;
  PersistentRecordCache* cache = nullptr;
  auto resolved = GetCache(request, &mode);
  if (resolved.ok()) {
    cache = resolved.value();
  } else {
    // A broken/locked cache file must never fail queries — serve cold,
    // the same degradation ModisEngine applies to a self-owned cache.
    MODIS_LOG(WARN, "service")
        << "record cache disabled: " << resolved.status().ToString();
    mode = CacheMode::kOff;
  }
  config.cache_mode = mode;

  ValuationContext lent;
  lent.pool = &pool_;
  lent.record_cache = cache;
  lent.fuser = &fuser_;
  const SpanId run_span =
      trace != nullptr ? trace->Begin("run", root) : kNoSpan;
  lent.trace = trace;
  lent.trace_parent = run_span;
  auto response = RunQuery(request, context->bench.name, context->universe,
                           &evaluator, config, lent);
  if (trace != nullptr) trace->End(run_span);
  return response;
}

Result<DiscoveryResponse> DiscoveryService::AnswerDetached(
    const DiscoveryRequest& request, double task_row_scale) {
  MODIS_ASSIGN_OR_RETURN(BenchTaskId id, ParseBenchTask(request.task));
  MODIS_ASSIGN_OR_RETURN(TabularBench bench,
                         MakeTabularBench(id, task_row_scale));
  MODIS_ASSIGN_OR_RETURN(
      SearchUniverse universe,
      SearchUniverse::Build(bench.universal, bench.universe_options));

  SupervisedTask task = bench.task;
  MODIS_ASSIGN_OR_RETURN(
      task.measures, FilterMeasures(bench.task.measures, request.measures));
  SupervisedEvaluator evaluator(task, bench.model->Clone());

  ModisConfig config = ConfigFromRequest(request);
  MODIS_RETURN_IF_ERROR(ApplyVariantFlags(request.variant, &config));
  config.record_cache_path = request.cache_path;
  if (!request.cache_mode.empty()) {
    MODIS_ASSIGN_OR_RETURN(config.cache_mode,
                           ParseCacheMode(request.cache_mode));
  } else if (request.cache_path.empty()) {
    config.cache_mode = CacheMode::kOff;
  }

  WallTimer total;
  MODIS_ASSIGN_OR_RETURN(
      DiscoveryResponse response,
      RunQuery(request, bench.name, universe, &evaluator, config,
               ValuationContext{}));
  response.total_ms = total.Millis();
  return response;
}

size_t DiscoveryService::ResolveTenantLocked(
    const std::string& api_key) const {
  const auto it = tenant_by_key_.find(api_key);
  return it != tenant_by_key_.end() ? it->second : default_tenant_;
}

Status DiscoveryService::AdmitLocked(const DiscoveryRequest& request,
                                     size_t* tenant_index, int* priority,
                                     bool* warm, Job* shed) {
  *tenant_index = size_t(-1);
  *priority = 0;
  *warm = false;
  Tenant* tenant = nullptr;
  if (qos_enabled_) {
    *tenant_index = ResolveTenantLocked(request.api_key);
    tenant = &tenants_[*tenant_index];
    *priority = tenant->spec.priority;
    if (tenant->spec.burst > 0.0) {
      const auto now = std::chrono::steady_clock::now();
      const double elapsed =
          std::chrono::duration<double>(now - tenant->last_refill).count();
      tenant->last_refill = now;
      tenant->tokens =
          std::min(tenant->spec.burst,
                   tenant->tokens + elapsed * tenant->spec.rate_per_s);
      if (tenant->tokens < 1.0) {
        ++tenant->rate_limited;
        metrics_.qos_rate_limited.fetch_add(1);
        metrics_.rejected.fetch_add(1);
        const double wait =
            tenant->spec.rate_per_s > 0.0
                ? (1.0 - tenant->tokens) / tenant->spec.rate_per_s
                : 1.0;
        return QosRejected(tenant->spec.name,
                           "rate limited (token bucket empty)", wait);
      }
    }
    if (tenant->spec.max_in_flight > 0 &&
        tenant->in_flight >= tenant->spec.max_in_flight) {
      ++tenant->quota_rejected;
      metrics_.qos_quota_rejected.fetch_add(1);
      metrics_.rejected.fetch_add(1);
      return QosRejected(tenant->spec.name,
                         "in-flight quota (" +
                             std::to_string(tenant->spec.max_in_flight) +
                             ") reached",
                         1.0);
    }
    *warm = warm_keys_.count(WarmKeyOf(request)) > 0;
  }
  if (queue_.size() >= options_.queue_capacity) {
    // Load shedding: displace the cheapest-to-retry queued job iff the
    // incoming request strictly outranks it. Cheapest first = lowest
    // priority, cold before warm (a warm answer is nearly free to
    // produce, so the cold one is the better retry candidate), youngest
    // on ties (it has waited least). Deterministic by construction —
    // tests/service_test.cc pins the ordering.
    const auto rank = [](int priority, bool warm_job) {
      return std::make_pair(priority, warm_job ? 1 : 0);
    };
    auto victim = queue_.end();
    if (qos_enabled_) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (victim == queue_.end() ||
            rank(it->priority, it->warm) <=
                rank(victim->priority, victim->warm)) {
          victim = it;
        }
      }
    }
    if (victim != queue_.end() &&
        rank(*priority, *warm) > rank(victim->priority, victim->warm)) {
      *shed = std::move(*victim);
      queue_.erase(victim);
      if (shed->tenant < tenants_.size()) {
        Tenant& displaced = tenants_[shed->tenant];
        --displaced.in_flight;
        ++displaced.shed;
      }
      metrics_.qos_shed.fetch_add(1);
      // Fall through: the incoming request takes the freed slot.
    } else {
      metrics_.rejected.fetch_add(1);
      const std::string detail = "admission queue full (" +
                                 std::to_string(options_.queue_capacity) +
                                 " pending)";
      if (tenant != nullptr) {
        ++tenant->shed;
        metrics_.qos_shed.fetch_add(1);
        return QosRejected(tenant->spec.name, detail, 1.0);
      }
      return Status::ResourceExhausted(detail +
                                       "; retry later [retry_after_s=1.000]");
    }
  }
  if (tenant != nullptr) {
    if (tenant->spec.burst > 0.0) tenant->tokens -= 1.0;
    ++tenant->in_flight;
    ++tenant->admitted;
  }
  metrics_.accepted.fetch_add(1);
  return Status::OK();
}

Status DiscoveryService::Submit(DiscoveryRequest request, Callback done) {
  MODIS_CHECK(done != nullptr) << "Submit: null callback";
  Job shed;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      return Status::FailedPrecondition("discovery service is shutting down");
    }
    if (sessions_.empty()) {
      return Status::FailedPrecondition(
          "execution-only discovery service (no sessions) admits nothing");
    }
    size_t tenant_index;
    int priority;
    bool warm;
    MODIS_RETURN_IF_ERROR(
        AdmitLocked(request, &tenant_index, &priority, &warm, &shed));
    Job job;
    job.request = std::move(request);
    job.done = std::move(done);
    job.queued = WallTimer();
    job.tenant = tenant_index;
    job.priority = priority;
    job.warm = warm;
    // Every accepted query gets an id and a span recorder: the id stamps
    // logs/response/headers, the recorder feeds the debug ring and the
    // phase histograms whether or not the client asked for the inline
    // echo. The admission span stays open until a session dequeues it.
    job.sequence = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%06llu",
                  static_cast<unsigned long long>(job.sequence));
    job.request_id = std::string("q-") + suffix;
    job.recorder = std::make_shared<TraceRecorder>();
    job.root_span = job.recorder->Begin("query", kNoSpan);
    job.admission_span = job.recorder->Begin("admission", job.root_span);
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  if (shed.done) {
    // Fail the displaced job outside the lock: its submitter may be
    // blocked in Answer(), and its callback may re-enter the service.
    const std::string name = shed.tenant < tenants_.size()
                                 ? tenants_[shed.tenant].spec.name
                                 : std::string("default");
    shed.done(Result<DiscoveryResponse>(QosRejected(
        name, "shed under overload (displaced by higher-priority work)",
        1.0)));
  }
  return Status::OK();
}

Result<DiscoveryResponse> DiscoveryService::Answer(
    const DiscoveryRequest& request) {
  std::promise<Result<DiscoveryResponse>> promise;
  std::future<Result<DiscoveryResponse>> future = promise.get_future();
  MODIS_RETURN_IF_ERROR(
      Submit(request, [&promise](Result<DiscoveryResponse> response) {
        promise.set_value(std::move(response));
      }));
  return future.get();
}

DiscoveryService::Stats DiscoveryService::stats() const {
  Stats stats;
  stats.accepted = metrics_.accepted.load();
  stats.rejected = metrics_.rejected.load();
  stats.served = metrics_.served.load();
  stats.failed = metrics_.failed.load();
  return stats;
}

MetricsSnapshot DiscoveryService::SnapshotMetrics() const {
  MetricsSnapshot snapshot = metrics_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    snapshot.queue_depth = queue_.size();
    snapshot.tenants.reserve(tenants_.size());
    for (const Tenant& tenant : tenants_) {
      TenantMetricsSnapshot entry;
      entry.name = tenant.spec.name;
      entry.priority = tenant.spec.priority;
      entry.admitted = tenant.admitted;
      entry.rate_limited = tenant.rate_limited;
      entry.quota_rejected = tenant.quota_rejected;
      entry.shed = tenant.shed;
      entry.served = tenant.served;
      entry.failed = tenant.failed;
      entry.in_flight = tenant.in_flight;
      snapshot.tenants.push_back(std::move(entry));
    }
  }
  {
    std::lock_guard<std::mutex> lock(context_mu_);
    snapshot.live_contexts = contexts_.size();
  }
  if (workers_ != nullptr) workers_->FillMetrics(&snapshot);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    snapshot.cache_files = caches_.size();
    for (const auto& [path, cache] : caches_) {
      (void)path;
      const PersistentRecordCache::Stats stats = cache->stats();
      snapshot.cache_bytes += stats.log_bytes;
      snapshot.cache_records += stats.loaded_records;
      snapshot.cache_replays += stats.served;
      snapshot.cache_appends += stats.appended;
      snapshot.cache_evictions += stats.evicted;
      snapshot.cache_reclaimed_bytes += stats.reclaimed_bytes;
    }
  }
  return snapshot;
}

void DiscoveryService::SessionLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained.
      // Priority-aware pick: highest priority first, FIFO within one
      // priority (the deque keeps insertion order, so the first maximum
      // is the oldest). With QoS off every job has priority 0 — plain
      // FIFO, the pre-QoS behavior.
      auto best = queue_.begin();
      if (qos_enabled_) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
          if (it->priority > best->priority) best = it;
        }
      }
      job = std::move(*best);
      queue_.erase(best);
    }
    TraceRecorder* const trace = job.recorder.get();
    trace->End(job.admission_span);
    const double queue_ms = job.queued.Millis();
    Result<DiscoveryResponse> response =
        workers_ != nullptr
            ? workers_->Execute(job.request, trace, job.root_span)
            : Execute(job.request, trace, job.root_span);
    metrics_.queue_ms.Record(queue_ms);

    // Response assembly (request id, phase-histogram feeding, debug-ring
    // retention) is itself a phase: the "respond" span. It and the root
    // are ended before the snapshots below, so both the inline echo and
    // the retained trace carry complete durations.
    const SpanId respond_span = trace->Begin("respond", job.root_span);
    if (response.ok()) {
      response.value().request_id = job.request_id;
      response.value().queue_ms = queue_ms;
      response.value().total_ms = job.queued.Millis();
      metrics_.run_ms.Record(response.value().run_ms);
      metrics_.total_ms.Record(response.value().total_ms);
      metrics_.trainings_shared.fetch_add(response.value().fused_hits);
      if (response.value().fused_hits > 0) metrics_.queries_fused.fetch_add(1);
      metrics_.served.fetch_add(1);
    } else {
      metrics_.failed.fetch_add(1);
    }
    trace->End(respond_span);
    trace->End(job.root_span);
    if (response.ok() && job.request.trace) {
      response.value().trace_spans = trace->Snapshot();
    }

    // spec.name is immutable after the constructor and tenants_ is never
    // resized, so reading it without queue_mu_ is safe.
    const std::string tenant_name =
        job.tenant < tenants_.size() ? tenants_[job.tenant].spec.name
                                     : std::string("default");

    // Fold the completed span tree into the debug ring and the per-phase
    // histograms. The histograms are derived from the same spans the
    // trace surfaces export, so `modis_phase_*` agrees with
    // /v1/debug/traces by construction.
    Trace completed;
    completed.request_id = job.request_id;
    completed.tenant = tenant_name;
    completed.task = job.request.task;
    completed.ok = response.ok();
    completed.sequence = job.sequence;
    completed.spans = trace->Snapshot();
    const double total_ms = !completed.spans.empty()
                                ? completed.spans.front().duration_ms
                                : job.queued.Millis();
    completed.total_ms = total_ms;
    const double admission_ms = SumSpanMs(completed.spans, "admission");
    const double context_ms = SumSpanMs(completed.spans, "context");
    const double plan_ms = SumSpanMs(completed.spans, "plan");
    const double train_ms = SumSpanMs(completed.spans, "train");
    const double commit_ms = SumSpanMs(completed.spans, "commit");
    const double flush_ms = SumSpanMs(completed.spans, "flush");
    const double respond_ms = SumSpanMs(completed.spans, "respond");
    metrics_.phase_admission_ms.Record(admission_ms);
    metrics_.phase_context_ms.Record(context_ms);
    metrics_.phase_plan_ms.Record(plan_ms);
    metrics_.phase_train_ms.Record(train_ms);
    metrics_.phase_commit_ms.Record(commit_ms);
    metrics_.phase_flush_ms.Record(flush_ms);
    metrics_.phase_respond_ms.Record(respond_ms);
    trace_ring_.Add(std::move(completed));

    if (options_.slow_query_ms > 0.0 && total_ms >= options_.slow_query_ms) {
      MODIS_LOG(WARN, "service")
              .Tag("request_id", job.request_id)
              .Tag("tenant", tenant_name)
              .Tag("task", job.request.task)
              .Tag("total_ms", total_ms)
              .Tag("admission_ms", admission_ms)
              .Tag("context_ms", context_ms)
              .Tag("plan_ms", plan_ms)
              .Tag("train_ms", train_ms)
              .Tag("commit_ms", commit_ms)
              .Tag("flush_ms", flush_ms)
              .Tag("respond_ms", respond_ms)
          << "slow query";
    }

    if (qos_enabled_) {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (response.ok()) {
        if (warm_keys_.size() > 65536) warm_keys_.clear();
        warm_keys_.insert(WarmKeyOf(job.request));
      }
      if (job.tenant < tenants_.size()) {
        Tenant& tenant = tenants_[job.tenant];
        --tenant.in_flight;
        if (response.ok()) {
          ++tenant.served;
        } else {
          ++tenant.failed;
        }
      }
    }
    // Per-query completion line: DEBUG in steady state, INFO while
    // draining so a shutting-down host shows each accepted query it is
    // finishing, by request id.
    const bool draining = metrics_.draining.load();
    if (draining) {
      MODIS_LOG(INFO, "service")
              .Tag("request_id", job.request_id)
              .Tag("tenant", tenant_name)
              .Tag("task", job.request.task)
              .Tag("ok", response.ok() ? int64_t{1} : int64_t{0})
              .Tag("total_ms", total_ms)
          << "drained query";
    } else {
      MODIS_LOG(DEBUG, "service")
              .Tag("request_id", job.request_id)
              .Tag("tenant", tenant_name)
              .Tag("task", job.request.task)
              .Tag("ok", response.ok() ? int64_t{1} : int64_t{0})
              .Tag("total_ms", total_ms)
          << "query complete";
    }
    job.done(std::move(response));
  }
}

}  // namespace modis
