#include "estimator/oracle.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "estimator/training_fuser.h"
#include "storage/persistent_record_cache.h"

namespace modis {

namespace {

/// Begins a span under the context's parent; kNoSpan without a recorder
/// (End/AddAttr on kNoSpan are no-ops, so call sites stay branch-free).
SpanId BeginSpan(const ValuationContext& ctx, const char* name) {
  return ctx.trace != nullptr ? ctx.trace->Begin(name, ctx.trace_parent)
                              : kNoSpan;
}

void EndSpan(const ValuationContext& ctx, SpanId id) {
  if (ctx.trace != nullptr) ctx.trace->End(id);
}

/// True when the context's cache holds `key`. The plan-time probe; does
/// not count a cache hit (the commit's PersistentFetch does), but refreshes
/// the record's recency so a byte-bounded shared cache prefers other
/// eviction victims between this plan and its commit.
bool PersistentContains(const ValuationContext& ctx, const std::string& key) {
  return ctx.record_cache != nullptr &&
         ctx.record_cache->Touch(ctx.fingerprint, key);
}

/// Copies the recorded evaluation for `key` into `*out`; false on miss.
/// Copying (not pointing into the cache) is what makes a cache shared by
/// concurrent sessions safe to serve from.
bool PersistentFetch(const ValuationContext& ctx, const std::string& key,
                     Evaluation* out) {
  if (ctx.record_cache == nullptr) return false;
  StoredRecord record;
  if (!ctx.record_cache->Get(ctx.fingerprint, key, &record)) return false;
  *out = std::move(record.eval);
  return true;
}

/// Writes a freshly trained record through to the context's cache.
void PersistentStore(const ValuationContext& ctx, const std::string& key,
                     const std::vector<double>& features,
                     const Evaluation& eval) {
  if (ctx.record_cache != nullptr && ctx.write_through) {
    ctx.record_cache->Insert(ctx.fingerprint, key, features, eval);
  }
}

/// Flushes cache appends; called once per batch commit.
void FlushPersistent(const ValuationContext& ctx) {
  if (ctx.record_cache == nullptr) return;
  const SpanId flush_span = BeginSpan(ctx, "flush");
  const Status flushed = ctx.record_cache->Flush();
  (void)flushed;  // A failed flush only risks re-training after a crash.
  EndSpan(ctx, flush_span);
}

}  // namespace

PerformanceOracle::PerformanceOracle(TaskEvaluator* evaluator,
                                     std::optional<SurrogateOptions> surrogate)
    : evaluator_(evaluator),
      surrogate_on_(surrogate.has_value()),
      options_(surrogate.value_or(SurrogateOptions{})),
      surrogate_(options_.gbm),
      rng_(options_.seed) {
  MODIS_CHECK(evaluator_ != nullptr) << "PerformanceOracle: null evaluator";
}

PerformanceOracle::ExactOutcome PerformanceOracle::RunExactOne(
    const ValuationRequest& req, const ValuationContext& ctx) const {
  auto train = [this, &req]() -> Result<Evaluation> {
    const MaterializationPtr m = req.materialize();
    if (m == nullptr || req.universe == nullptr) {
      return Status::Internal("valuation request without a materialization");
    }
    return evaluator_->Evaluate(req.universe->View(*m));
  };
  ExactOutcome out;
  out.executed = true;
  if (ctx.fuser != nullptr) {
    TrainingFuser::Outcome fused =
        ctx.fuser->Train(ctx.fingerprint, req.key, train);
    out.result = std::move(fused.result);
    out.seconds = fused.seconds;
    out.shared = fused.shared;
    return out;
  }
  WallTimer timer;
  out.result = train();
  out.seconds = timer.Seconds();
  return out;
}

std::vector<PerformanceOracle::ExactOutcome>
PerformanceOracle::RunExactTrainings(const BatchPlan& plan) const {
  std::vector<size_t> exact_ids;
  exact_ids.reserve(plan.exact_count);
  for (size_t i = 0; i < plan.modes.size(); ++i) {
    if (plan.modes[i] == BatchPlan::Mode::kExact) exact_ids.push_back(i);
  }
  std::vector<ExactOutcome> outcomes(plan.requests.size());
  // The span context is captured once here and passed by value into the
  // closure: every worker parents its "exact" span under this batch's
  // "train" span no matter which pool thread runs it. The recorder's own
  // mutex makes concurrent Begin/End TSan-clean.
  const ValuationContext& ctx = plan.context;
  const SpanId train_span = BeginSpan(ctx, "train");
  TraceRecorder* const trace = ctx.trace;
  const Status status = ParallelFor(
      ctx.pool, 0, exact_ids.size(), [&, trace, train_span](size_t k) {
        const size_t i = exact_ids[k];
        const SpanId item_span =
            trace != nullptr ? trace->Begin("exact", train_span) : kNoSpan;
        outcomes[i] = RunExactOne(plan.requests[i], ctx);
        if (trace != nullptr) {
          trace->AddAttr(item_span, "shared", outcomes[i].shared ? 1 : 0);
          trace->End(item_span);
        }
      });
  EndSpan(ctx, train_span);
  if (!status.ok()) {
    for (size_t i : exact_ids) {
      if (!outcomes[i].executed) outcomes[i].result = status;
    }
  }
  return outcomes;
}

void TestRecordStore::Add(std::string key, std::vector<double> features,
                          Evaluation eval) {
  index_[key] = records_.size();
  records_.push_back({std::move(key), std::move(features), std::move(eval)});
}

const Evaluation* TestRecordStore::Find(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  return &records_[it->second].eval;
}

std::vector<std::vector<double>> TestRecordStore::NormalizedVectors() const {
  std::vector<std::vector<double>> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.eval.normalized);
  return out;
}

Result<Evaluation> PerformanceOracle::CommitExact(const ValuationRequest& req,
                                                 const ValuationContext& ctx,
                                                 ExactOutcome* trained) {
  Evaluation eval;
  if (trained == nullptr && PersistentFetch(ctx, req.key, &eval)) {
    ++stats_.persistent_hits;
  } else {
    // Without a fan-out slot — a planned replay whose record a concurrent
    // session's byte-bound flush evicted, or a request the plan left to a
    // surrogate that is still untrained — train inline on the caller
    // thread (or join another query's in-flight training of the state).
    ExactOutcome fresh = trained != nullptr ? std::move(*trained)
                                            : RunExactOne(req, ctx);
    stats_.exact_seconds += fresh.seconds;
    if (!fresh.result.ok()) {
      ++stats_.failed_evals;
      return std::move(fresh.result);
    }
    ++(fresh.shared ? stats_.fused_hits : stats_.exact_evals);
    eval = std::move(fresh.result).value();
    PersistentStore(ctx, req.key, req.features, eval);
  }
  // Shadow prediction: measure the surrogate against the fresh truth.
  if (surrogate_.trained()) {
    const Evaluation guess = PredictEvaluation(req.features);
    for (size_t j = 0; j < guess.normalized.size(); ++j) {
      const double d = guess.normalized[j] - eval.normalized[j];
      shadow_sq_error_ += d * d;
      ++shadow_count_;
    }
  }
  store_.Add(req.key, req.features, eval);
  return eval;
}

void PerformanceOracle::MaybeRetrain() {
  if (!surrogate_on_) return;
  const size_t n = store_.size();
  const bool due = !surrogate_.trained()
                       ? n >= options_.bootstrap_budget
                       : n >= records_at_last_train_ + options_.retrain_every;
  if (!due || n < 4) return;

  const auto& records = store_.records();
  const size_t d = records.front().features.size();
  const size_t m = evaluator_->measures().size();
  Matrix x(n, d);
  Matrix y(n, m);
  for (size_t i = 0; i < n; ++i) {
    MODIS_CHECK(records[i].features.size() == d) << "feature width drift";
    for (size_t c = 0; c < d; ++c) x.At(i, c) = records[i].features[c];
    for (size_t c = 0; c < m; ++c) y.At(i, c) = records[i].eval.normalized[c];
  }
  Rng train_rng(options_.seed + n);
  const Status fitted = surrogate_.Fit(x, y, &train_rng);
  if (!fitted.ok()) {
    // A failed fit may leave some outputs unfitted: drop the estimator
    // whole. Keeping the previous one instead would hold two estimators
    // through every refit.
    surrogate_ = MultiOutputGbm(options_.gbm);
    MODIS_LOG(WARN, "oracle") << "surrogate refit on " << n
                              << " records failed, valuating exactly until "
                                 "a refit succeeds: "
                              << fitted.ToString();
    return;
  }
  records_at_last_train_ = n;
}

Evaluation PerformanceOracle::PredictEvaluation(
    const std::vector<double>& features) const {
  Evaluation eval;
  eval.normalized = surrogate_.PredictRow(features.data());
  const auto& specs = evaluator_->measures();
  eval.raw.resize(eval.normalized.size());
  for (size_t i = 0; i < eval.normalized.size(); ++i) {
    // Keep predictions inside the legal normalized range.
    eval.normalized[i] = Clamp(eval.normalized[i], specs[i].lower, 1.0);
    // Back-of-envelope raw value (search logic only consumes normalized).
    eval.raw[i] = specs[i].direction == MeasureSpec::Direction::kMaximize
                      ? 1.0 - eval.normalized[i]
                      : eval.normalized[i] * specs[i].scale;
  }
  return eval;
}

Result<Evaluation> PerformanceOracle::Valuate(const ValuationRequest& request) {
  return std::move(ValuateBatch(PrepareBatch({request})).front());
}

BatchPlan PerformanceOracle::PrepareBatch(
    std::vector<ValuationRequest> requests, ValuationContext context) {
  // Span recording brackets the loop without touching the policy stream:
  // the Bernoulli draws below are consumed exactly as on an untraced run.
  const SpanId plan_span = BeginSpan(context, "plan");
  BatchPlan plan;
  plan.modes.reserve(requests.size());
  // Project how the surrogate's availability evolves over the batch: the
  // records this plan's own exact valuations will add count towards the
  // bootstrap budget, because they are committed (and the surrogate
  // retrained) before any surrogate prediction of this batch runs. In
  // exact mode the bootstrap never completes, so every uncached request
  // trains and no policy randomness is drawn.
  size_t projected_records = store_.size();
  bool projected_trained = surrogate_.trained();
  for (const ValuationRequest& req : requests) {
    BatchPlan::Mode mode;
    if (store_.Find(req.key) != nullptr) {
      mode = BatchPlan::Mode::kCached;
    } else if (!projected_trained) {
      mode = BatchPlan::Mode::kExact;  // Exact mode, or still bootstrapping.
      ++projected_records;
      if (surrogate_on_ && projected_records >= options_.bootstrap_budget &&
          projected_records >= 4) {
        projected_trained = true;
      }
    } else {
      // Keep a trickle of exact valuations so T keeps growing and the
      // estimator periodically refreshes.
      mode = rng_.Bernoulli(options_.exact_fraction)
                 ? BatchPlan::Mode::kExact
                 : BatchPlan::Mode::kSurrogate;
      if (mode == BatchPlan::Mode::kExact) ++projected_records;
    }
    // Persistent-cache substitution AFTER the policy decision: the
    // Bernoulli stream and the bootstrap projection are consumed exactly
    // as on a cold run, so a warm running replays the cold plan verbatim
    // — only the trainings themselves are skipped.
    if (mode == BatchPlan::Mode::kExact &&
        PersistentContains(context, req.key)) {
      mode = BatchPlan::Mode::kPersistent;
    }
    if (mode == BatchPlan::Mode::kExact) ++plan.exact_count;
    plan.modes.push_back(mode);
  }
  plan.requests = std::move(requests);
  EndSpan(context, plan_span);
  plan.context = context;
  return plan;
}

std::vector<Result<Evaluation>> PerformanceOracle::ValuateBatch(
    BatchPlan plan) {
  const ValuationContext& ctx = plan.context;
  std::vector<ExactOutcome> outcomes = RunExactTrainings(plan);
  const SpanId commit_span = BeginSpan(ctx, "commit");

  // Commit pass 1, request order: fold the exact results — trained by the
  // fan-out or replayed from the record cache — into the stats, the shadow
  // error (against the pre-batch surrogate), and the record store. This is
  // the only place batch results mutate shared state, so the store
  // contents — and everything derived from them — are identical for every
  // thread count.
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    const BatchPlan::Mode mode = plan.modes[i];
    if (mode == BatchPlan::Mode::kExact) {
      outcomes[i].result = CommitExact(plan.requests[i], ctx, &outcomes[i]);
    } else if (mode == BatchPlan::Mode::kPersistent) {
      outcomes[i].result = CommitExact(plan.requests[i], ctx, nullptr);
    }
  }
  // One deterministic retrain per batch, after all ingestions.
  MaybeRetrain();

  // Surrogate predictions of the batch are embarrassingly parallel: once
  // the post-ingestion retrain above has run, the estimator is read-only
  // for the rest of the commit, and PredictEvaluation is a pure function
  // of (estimator, features). Fan them out over the pool; the outputs —
  // and therefore the skyline — are byte-identical at every thread count.
  // (When the surrogate is still untrained here, the per-request fallback
  // below may train exactly and retrain mid-pass; that path stays serial.)
  std::vector<size_t> surrogate_ids;
  for (size_t i = 0; i < plan.modes.size(); ++i) {
    if (plan.modes[i] == BatchPlan::Mode::kSurrogate) {
      surrogate_ids.push_back(i);
    }
  }
  std::vector<Evaluation> predicted;
  bool predicted_ready = false;
  if (surrogate_.trained() && !surrogate_ids.empty()) {
    predicted.resize(plan.requests.size());
    WallTimer timer;
    const Status fanned =
        ParallelFor(ctx.pool, 0, surrogate_ids.size(), [&](size_t k) {
          const size_t i = surrogate_ids[k];
          predicted[i] = PredictEvaluation(plan.requests[i].features);
        });
    stats_.surrogate_seconds += timer.Seconds();
    predicted_ready = fanned.ok();
  }

  // Commit pass 2, request order: answer every request. Surrogate
  // predictions all use the freshly committed estimator.
  std::vector<Result<Evaluation>> results;
  results.reserve(plan.requests.size());
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    const ValuationRequest& req = plan.requests[i];
    switch (plan.modes[i]) {
      case BatchPlan::Mode::kCached:
        ++stats_.cache_hits;
        results.push_back(*store_.Find(req.key));
        break;
      case BatchPlan::Mode::kExact:
      case BatchPlan::Mode::kPersistent:
        results.push_back(std::move(outcomes[i].result));
        break;
      case BatchPlan::Mode::kSurrogate: {
        if (!surrogate_.trained()) {
          // The plan projected the bootstrap to complete, but an exact
          // training failed (or the refit did): valuate exactly rather
          // than drop the state. Runs inline on the caller thread, so the
          // commit order stays deterministic.
          Result<Evaluation> r = CommitExact(req, ctx, nullptr);
          if (r.ok()) MaybeRetrain();  // The bootstrap may complete here.
          results.push_back(std::move(r));
          break;
        }
        if (predicted_ready) {
          // Pre-computed by the parallel fan-out above (already timed).
          ++stats_.surrogate_evals;
          results.push_back(std::move(predicted[i]));
          break;
        }
        WallTimer timer;
        Evaluation eval = PredictEvaluation(req.features);
        stats_.surrogate_seconds += timer.Seconds();
        ++stats_.surrogate_evals;
        results.push_back(std::move(eval));
        break;
      }
    }
  }
  EndSpan(ctx, commit_span);
  FlushPersistent(ctx);
  return results;
}

double PerformanceOracle::SurrogateMse() const {
  return shadow_count_ == 0 ? 0.0
                            : shadow_sq_error_ / static_cast<double>(
                                                     shadow_count_);
}

}  // namespace modis
