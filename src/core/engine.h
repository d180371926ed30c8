#ifndef MODIS_CORE_ENGINE_H_
#define MODIS_CORE_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/config.h"
#include "core/universe.h"
#include "estimator/oracle.h"
#include "storage/persistent_record_cache.h"

namespace modis {

/// One member of a computed skyline set: the state, its valuated (possibly
/// estimated) evaluation, and bookkeeping for reporting.
struct SkylineEntry {
  StateBitmap state;
  Evaluation eval;
  int level = 0;
  size_t rows = 0;
  size_t cols = 0;
};

/// Outcome of a MODis running.
struct ModisResult {
  std::vector<SkylineEntry> skyline;
  size_t valuated_states = 0;
  size_t generated_states = 0;
  size_t pruned_states = 0;
  double seconds = 0.0;
  PerformanceOracle::Stats oracle_stats;
  /// True when a persistent record cache was actually open during the
  /// run (configured, and the log opened cleanly).
  bool record_cache_active = false;
  /// Session counters of the cross-run record cache (all zero when
  /// persistence is off or the open failed): records loaded at open,
  /// hits served, appends.
  PersistentRecordCache::Stats record_cache_stats;
};

/// Externally owned execution resources a re-entrant engine may run on.
/// The long-lived discovery service (src/service/) constructs one engine
/// per query but shares one worker pool and one open record cache across
/// all of them; a default-constructed runtime reproduces the standalone
/// behavior (engine owns a pool sized by ModisConfig::num_threads and
/// opens its own cache from ModisConfig::record_cache_path).
struct EngineRuntime {
  /// Worker pool for batched exact trainings (and surrogate prediction
  /// fan-out). Not owned; must outlive the engine. Null → self-owned.
  ThreadPool* pool = nullptr;
  /// An already-open (possibly multi-task, thread-safe) record cache.
  /// Not owned; must outlive the engine. The engine scopes all access by
  /// its own TaskFingerprint and honors ModisConfig::cache_mode — kRead
  /// serves hits without appending, kOff ignores the cache entirely.
  /// Null → self-opened from ModisConfig::record_cache_path.
  PersistentRecordCache* record_cache = nullptr;
  /// A cross-query exact-training fuser shared by every engine the host
  /// constructs. Not owned; must outlive the engine. The engine scopes it
  /// by its own TaskFingerprint, so only queries over identical data,
  /// layout, measures, and model identity ever share a training. Null →
  /// no fusion (standalone behavior).
  TrainingFuser* fuser = nullptr;
  /// Per-query span recorder (owned by the caller; must outlive the
  /// engine). When set, the engine records level/batch spans under
  /// `trace_parent` and propagates the context into the oracle, so one
  /// query yields a complete span tree. Null → no tracing. Recording
  /// never consumes randomness or reorders valuation, so a traced run is
  /// byte-identical to an untraced one.
  TraceRecorder* trace = nullptr;
  /// Parent span (the caller's "run" span) for the engine's spans.
  SpanId trace_parent = kNoSpan;
};

/// The multi-goal finite-state-transducer search engine (§3-§5).
///
/// Simulates a running of the data generator T: starting from the
/// universal state (and, bidirectionally, from the BackSt seed), it
/// level-wise spawns one-flip transitions (OpGen), valuates each spawned
/// state through the performance oracle, and maintains an ε-skyline via
/// the grid positions of Equation (1) (UPareto). Optional correlation-based
/// pruning (Lemma 4) and per-level diversification (Algorithm 3).
///
/// Valuation is level-batched: ExpandLevel first collects, dedups, and
/// prune-filters every one-flip child of the frontier level, then issues
/// the survivors as one oracle batch (PrepareBatch / ValuateBatch). Exact
/// model trainings of the batch fan out over a ThreadPool sized by
/// ModisConfig::num_threads; plan and commit stay on the caller thread in
/// a fixed order, so the computed skyline does not depend on the thread
/// count. A state's rows are one SearchUniverse::SurvivingMask (word-level
/// ANDNOTs over precomputed cluster masks), and exact trainings gather
/// their rows from the encoded D_U (SearchUniverse::View) without copying
/// a table.
class ModisEngine {
 public:
  /// Does not own `universe` or `oracle`; both must outlive the engine.
  ModisEngine(const SearchUniverse* universe, PerformanceOracle* oracle,
              ModisConfig config);

  /// Re-entrant construction over externally owned resources (see
  /// EngineRuntime). A default runtime is identical to the 3-arg ctor.
  ModisEngine(const SearchUniverse* universe, PerformanceOracle* oracle,
              ModisConfig config, EngineRuntime runtime);

  /// Detaches the persistent record cache from the oracle (a self-owned
  /// cache dies with the engine; a shared one merely outlives the
  /// attachment).
  ~ModisEngine();

  /// Runs the search to completion and returns the skyline set.
  Result<ModisResult> Run();

  /// The dataset/task fingerprint scoping this running's persistent
  /// records: a stable hash of the universal table's schema, size, and
  /// full cell content, the unit layout (attributes, cluster literals,
  /// protections), the measure set, the task model's identity string
  /// (TaskEvaluator::ModelIdentity, via the oracle), and
  /// ModisConfig::record_cache_namespace. Exposed for tests and tooling
  /// that want to inspect a shared cache file.
  static uint64_t TaskFingerprint(const SearchUniverse& universe,
                                  const std::vector<MeasureSpec>& measures,
                                  const std::string& cache_namespace,
                                  const std::string& model_identity = "");

 private:
  struct Frontier {
    struct Entry {
      StateBitmap state;
      int level = 0;
      /// Worst bound-violation ratio max_j p_j/p_u_j of the valuated
      /// state; lower expands first within a level (the paper's
      /// "prioritize valuation towards the user-defined bounds"
      /// shortest-path extension, §5.2).
      double priority = 1.0;
    };
    std::deque<Entry> queue;
    bool forward = true;  // Forward flips 1->0 (Reduct); backward 0->1.
  };

  /// One batch-pending state: a collected child (or seed) awaiting
  /// valuation.
  struct BatchItem {
    StateBitmap state;
    std::string signature;
    /// The child's own level (parent level + 1; 0 for seeds).
    int level = 0;
  };

  /// One-flip children of `state` in the frontier's direction. Cluster
  /// units are only actionable when their attribute is included.
  std::vector<StateBitmap> OpGen(const StateBitmap& state, bool forward) const;

  /// Expands every state parked at `level` in the frontier, best
  /// decisive-priority first: collects all one-flip children (deduped,
  /// prune-filtered, capped at the remaining valuation budget), then
  /// valuates them as one oracle batch.
  void ExpandLevel(Frontier* frontier, int level);

  /// Dedups/prunes one candidate state; appends a BatchItem to `batch`
  /// when the state must be valuated. Shared by seeds and ExpandLevel.
  void CollectState(const StateBitmap& state, int level, Frontier* frontier,
                    std::vector<BatchItem>* batch);

  /// Issues `items` as one oracle batch and folds the results — skyline
  /// updates, frontier enqueues, failed-state handling — in item order.
  /// `trace_scope` parents the batch span (a level span inside
  /// ExpandLevel; the runtime's parent for seed batches).
  void ValuateBatch(std::vector<BatchItem> items, Frontier* frontier,
                    SpanId trace_scope);

  /// The UPareto grid update (Fig. 3 lines 20-30).
  void UPareto(const StateBitmap& state, const Evaluation& eval, int level);

  /// Correlation-based pruning (Lemma 4): true when the optimistic
  /// parameterized bounds of `state` are already ε-dominated by a skyline
  /// member.
  bool CanPrune(const StateBitmap& state);

  /// Derives the parameterized range [p̂l, p̂u] per measure for an
  /// un-valuated state from size-correlated valuated tests (Example 6);
  /// empty when no inference is possible.
  std::vector<std::pair<double, double>> ParameterizedRange(
      const StateBitmap& state);

  /// Applies Algorithm 3 at the end of a level: keeps a diversified
  /// k-subset of the current skyline.
  void DiversifyLevel();

  /// Rebuilds the grid map from `entries_` (after diversification).
  void RebuildGrid();

  /// Refreshes size_correlation_ from the oracle's record store; a no-op
  /// unless correlation pruning is on.
  void RefreshCorrelation();

  const SearchUniverse* universe_;
  PerformanceOracle* oracle_;
  ModisConfig config_;
  Rng rng_;

  /// Workers for the exact trainings of a batch; null when the effective
  /// thread count is 1 (fully serial running) or an external pool is in
  /// use.
  std::unique_ptr<ThreadPool> pool_;
  /// Externally owned pool (EngineRuntime::pool); wins over pool_.
  ThreadPool* extern_pool_ = nullptr;
  /// Cross-run persistent record cache (ModisConfig::record_cache_path);
  /// null when persistence is off or the log failed to open. Attached to
  /// the oracle for the engine's lifetime.
  std::unique_ptr<PersistentRecordCache> record_cache_;
  /// Externally owned shared cache (EngineRuntime::record_cache); wins
  /// over record_cache_.
  PersistentRecordCache* extern_cache_ = nullptr;
  /// Externally owned cross-query training fuser (EngineRuntime::fuser);
  /// attached to the oracle under this engine's TaskFingerprint.
  TrainingFuser* fuser_ = nullptr;
  /// Per-query span recorder (EngineRuntime::trace); null disables
  /// tracing.
  TraceRecorder* trace_ = nullptr;
  /// Parent span for level/flush spans (EngineRuntime::trace_parent).
  SpanId trace_parent_ = kNoSpan;

  /// The pool batched valuations fan out over (external or owned).
  ThreadPool* EffectivePool() const {
    return extern_pool_ != nullptr ? extern_pool_ : pool_.get();
  }
  /// The cache attached to the oracle for this running (external or
  /// owned); null when persistence is inactive.
  PersistentRecordCache* ActiveCache() const {
    return extern_cache_ != nullptr ? extern_cache_ : record_cache_.get();
  }

  size_t decisive_ = 0;
  std::vector<double> lower_bounds_;
  std::vector<double> upper_bounds_;

  // Grid position -> index into entries_. Entries removed by replacement
  // are tombstoned (index kMissing).
  std::map<std::vector<int64_t>, size_t> grid_;
  std::vector<SkylineEntry> entries_;
  std::vector<bool> entry_alive_;

  std::unordered_set<std::string> visited_forward_;
  std::unordered_set<std::string> visited_backward_;
  bool frontiers_met_ = false;

  // Spearman correlation of each measure against the row fraction,
  // refreshed once per level (correlation pruning only).
  std::vector<double> size_correlation_;

  ModisResult stats_;
};

}  // namespace modis

#endif  // MODIS_CORE_ENGINE_H_
