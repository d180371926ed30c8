#ifndef MODIS_ESTIMATOR_ORACLE_H_
#define MODIS_ESTIMATOR_ORACLE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/universe.h"
#include "estimator/task_evaluator.h"
#include "ml/multi_output_gbm.h"

namespace modis {

class PersistentRecordCache;
class ThreadPool;
class TrainingFuser;

/// The historical test set T of the paper: every valuated test
/// (state signature, state features, evaluation) recorded during a running.
/// Shared by correlation pruning, the surrogate trainer, and the
/// diversification normalizer.
class TestRecordStore {
 public:
  struct Record {
    std::string key;
    std::vector<double> features;
    Evaluation eval;
  };

  /// Adds a record (overwrites nothing — keys are expected unique).
  void Add(std::string key, std::vector<double> features, Evaluation eval);

  /// Cached evaluation for a state signature, or nullptr.
  const Evaluation* Find(const std::string& key) const;

  const std::vector<Record>& records() const { return records_; }
  size_t size() const { return records_.size(); }

  /// All normalized performance vectors (for euc_max).
  std::vector<std::vector<double>> NormalizedVectors() const;

 private:
  std::vector<Record> records_;
  std::unordered_map<std::string, size_t> index_;
};

/// One state awaiting valuation in a level batch.
struct ValuationRequest {
  /// Canonical state signature — the cache / record key.
  std::string key;
  /// Numeric state encoding the surrogate learns from.
  std::vector<double> features;
  /// The universe the state selects from; an exact valuation trains on
  /// `universe->View(*materialize())`. Not owned.
  const SearchUniverse* universe = nullptr;
  /// Lazily materializes the state's row mask; invoked only for exact
  /// valuations, possibly from a worker thread, so it must be safe to run
  /// concurrently with the other requests' providers.
  std::function<MaterializationPtr()> materialize;
};

/// What one running lends the estimator E for a batch (§6). None of it is
/// E's state: every pointer is borrowed, must outlive the batch, and may be
/// null. A default context valuates inline on the caller thread, with no
/// persistent records, no cross-query fusion, and no tracing.
struct ValuationContext {
  /// Worker pool the exact trainings (and surrogate predictions) of a
  /// batch fan out over; null runs them inline on the caller thread.
  ThreadPool* pool = nullptr;
  /// Cross-run persistent record cache, possibly shared by sessions of many
  /// tasks. With it, states whose exact training a prior run already paid
  /// for are replayed instead of re-trained (BatchPlan::Mode::kPersistent).
  PersistentRecordCache* record_cache = nullptr;
  /// Append fresh trainings to `record_cache`; false serves hits but never
  /// appends (a kRead view of the cache).
  bool write_through = false;
  /// Cross-query training fuser: exact trainings that concurrent queries
  /// request for the same (fingerprint, state) run once, and the other
  /// queries count a `fused_hit` instead of an `exact_eval`.
  TrainingFuser* fuser = nullptr;
  /// The task fingerprint (ModisEngine::TaskFingerprint) that scopes every
  /// record-cache access and every fused training. Sharing is sound
  /// because identical data, layout, measures, and model identity train
  /// identically.
  uint64_t fingerprint = 0;
  /// Span recorder; the oracle's plan/train/commit/flush spans nest under
  /// `trace_parent`. Recording consumes no policy randomness and reorders
  /// no work, so a traced batch is byte-identical to an untraced one.
  TraceRecorder* trace = nullptr;
  SpanId trace_parent = kNoSpan;
};

/// The caller-thread half of a batched valuation: the per-request decision
/// the oracle took before any model training ran, and the context the
/// batch runs in.
struct BatchPlan {
  enum class Mode : uint8_t {
    kCached,      // Evaluation already in the record store.
    kSurrogate,   // Predicted by the estimator on the caller thread.
    kExact,       // Real model training, scheduled onto the pool.
    kPersistent,  // Policy chose exact, but a prior run already trained
                  // this state: the persistent record cache replays the
                  // recorded evaluation and the training is skipped. The
                  // record is ingested into the store exactly as the
                  // training result would have been, so everything
                  // downstream (surrogate, correlations, skyline) is
                  // byte-identical to a cold run.
  };

  std::vector<ValuationRequest> requests;
  std::vector<Mode> modes;  // Parallel to `requests`.
  size_t exact_count = 0;
  ValuationContext context;
};

/// Options of the MO-GBM surrogate: the paper's default estimator, a
/// multi-output gradient boosting model that predicts the whole normalized
/// performance vector from the state features in one call (§2, §6).
struct SurrogateOptions {
  /// Exact valuations collected before the surrogate takes over.
  size_t bootstrap_budget = 24;
  /// After bootstrap, this fraction of valuations is still exact, to keep
  /// extending T (and periodically refresh the surrogate).
  double exact_fraction = 0.1;
  /// Retrain the MO-GBM after this many new exact records.
  size_t retrain_every = 16;
  GbmOptions gbm = {.num_rounds = 40,
                    .learning_rate = 0.1,
                    .tree = {.max_depth = 3,
                             .min_samples_leaf = 2,
                             .max_bins = 32,
                             .feature_fraction = 1.0},
                    .subsample = 1.0};
  uint64_t seed = 29;
};

/// The estimator E of §6. For every test it decides whether to train the
/// task model (an exact valuation) or to predict the state's normalized
/// performance vector with the MO-GBM surrogate trained on the historical
/// tests T. Constructed without SurrogateOptions, the policy always trains
/// (the wire's "exact" oracle): the plan never projects a bootstrap, never
/// draws from the policy randomness, and the surrogate is never fit. With
/// them (the wire's "gbm"), cold-start and a trickle of valuations remain
/// exact.
///
/// A test is given as a ValuationRequest: the canonical state signature
/// (the bitmap rendered as '0'/'1' characters), the numeric encoding of the
/// state the surrogate learns from, and a lazy materializer — only exact
/// valuations pay for it, which is how the surrogate keeps the per-test
/// cost low.
///
/// The engine issues one PrepareBatch/ValuateBatch pair per frontier level;
/// Valuate is the same pair over a one-request batch. What a batch borrows
/// (pool, record cache, fuser, trace) comes in its ValuationContext and
/// stays in its plan; the oracle keeps none of it between batches. Exact
/// trainings fan out over the pool while everything stateful — cache lookups,
/// surrogate inference, record-store ingestion, retraining — stays on the
/// caller thread, so results are deterministic for a given request order
/// no matter how many workers run.
class PerformanceOracle {
 public:
  struct Stats {
    size_t exact_evals = 0;
    size_t surrogate_evals = 0;
    size_t cache_hits = 0;
    /// Exact trainings avoided by replaying the persistent record cache.
    size_t persistent_hits = 0;
    /// Exact trainings avoided by sharing another concurrent query's
    /// training through the context's TrainingFuser.
    size_t fused_hits = 0;
    size_t failed_evals = 0;
    double exact_seconds = 0.0;
    double surrogate_seconds = 0.0;
  };

  /// Does not own `evaluator`; it must outlive the oracle. Without
  /// `surrogate` every valuation is exact.
  explicit PerformanceOracle(
      TaskEvaluator* evaluator,
      std::optional<SurrogateOptions> surrogate = std::nullopt);

  /// Valuates one test: ValuateBatch(PrepareBatch({request}))[0], in an
  /// empty context.
  Result<Evaluation> Valuate(const ValuationRequest& request);

  /// Splits a level batch into cache hits, surrogate predictions, and
  /// exact trainings, and keeps `context` in the plan for ValuateBatch.
  /// Runs on the caller thread and consumes the oracle's policy randomness
  /// in request order, so the plan is a pure function of the oracle state
  /// and the request sequence; `context.record_cache` only turns planned
  /// exact trainings into replays.
  BatchPlan PrepareBatch(std::vector<ValuationRequest> requests,
                         ValuationContext context = {});

  /// Executes a plan: exact model trainings run via ParallelFor over
  /// `plan.context.pool` (inline when null/single-threaded); the
  /// post-batch commit — stats, record-store ingestion, surrogate
  /// retraining, surrogate predictions — happens on the caller thread in
  /// request order, and a context cache is flushed once at its end.
  /// Returns one Result per request, aligned with `plan.requests`.
  std::vector<Result<Evaluation>> ValuateBatch(BatchPlan plan);

  const std::vector<MeasureSpec>& measures() const {
    return evaluator_->measures();
  }

  /// The identity string of the task model (see
  /// TaskEvaluator::ModelIdentity); ModisEngine mixes it into the
  /// persistent-cache task fingerprint. The surrogate never changes what a
  /// recorded *exact* training returns, so warm records are shareable
  /// between exact- and surrogate-mode runs.
  std::string ModelIdentity() const { return evaluator_->ModelIdentity(); }

  /// Mean squared error of the surrogate against the exact evaluations it
  /// has shadow-predicted (reported by bench_estimator); 0 in exact mode.
  double SurrogateMse() const;

  const Stats& stats() const { return stats_; }
  const TestRecordStore& store() const { return store_; }

 private:
  /// Per-request outcome of an exact training. Slots of a batch are
  /// pre-initialized to an error so indices skipped after a worker
  /// exception stay well-defined.
  struct ExactOutcome {
    Result<Evaluation> result;
    /// Training seconds paid by this oracle (0 for shared results).
    double seconds = 0.0;
    bool executed = false;
    /// True when the result came from another query via the fuser.
    bool shared = false;

    ExactOutcome()
        : result(Status::Internal("exact valuation not executed")) {}
  };

  /// One exact training — materialize the row mask, then train the real
  /// model on the view it selects — routed through the context's
  /// TrainingFuser when present. Safe to call from a worker thread: it
  /// touches no oracle state (stats are committed by the caller from the
  /// returned outcome).
  ExactOutcome RunExactOne(const ValuationRequest& req,
                           const ValuationContext& ctx) const;

  /// The fan-out half of ValuateBatch: every kExact request trains via
  /// RunExactOne, spread over the plan's pool. Workers only touch their
  /// own slot — all oracle state mutation happens in the caller's commit
  /// pass.
  std::vector<ExactOutcome> RunExactTrainings(const BatchPlan& plan) const;

  /// The one commit of an exact-policy valuation. With `trained` (a kExact
  /// slot of the fan-out) it takes that training's result; without, it
  /// replays the context cache's evaluation or, on a miss, trains inline on
  /// the caller thread. Either way it counts the outcome (exact_evals,
  /// fused_hits, persistent_hits or failed_evals), shadow-predicts it with
  /// a trained surrogate, adds it to T, and writes a fresh training through
  /// to the context cache. A replay stands in for the deterministic
  /// training that recorded it, so everything downstream is identical to a
  /// cold run.
  Result<Evaluation> CommitExact(const ValuationRequest& req,
                                 const ValuationContext& ctx,
                                 ExactOutcome* trained);

  /// Refits the surrogate on T when the bootstrap budget or the retrain
  /// interval is reached; a no-op in exact mode. A failed refit is logged
  /// and leaves the surrogate untrained, so valuations fall back to exact
  /// until a later commit's refit succeeds.
  void MaybeRetrain();
  Evaluation PredictEvaluation(const std::vector<double>& features) const;

  TaskEvaluator* evaluator_;
  /// False in exact mode; `options_` then only seeds unused members.
  bool surrogate_on_;
  SurrogateOptions options_;
  MultiOutputGbm surrogate_;
  Rng rng_;
  size_t records_at_last_train_ = 0;
  double shadow_sq_error_ = 0.0;
  size_t shadow_count_ = 0;

  Stats stats_;
  TestRecordStore store_;
};

}  // namespace modis

#endif  // MODIS_ESTIMATOR_ORACLE_H_
