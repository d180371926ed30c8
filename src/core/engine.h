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
/// ModisConfig::num_threads (or lent in the ValuationContext); plan and
/// commit stay on the caller thread in a fixed order, so the computed
/// skyline does not depend on the thread count. A state's rows are one
/// SearchUniverse::SurvivingMask (word-level ANDNOTs over precomputed
/// cluster masks), and exact trainings gather their rows from the encoded
/// D_U (SearchUniverse::View) without copying a table.
class ModisEngine {
 public:
  /// Does not own `universe` or `oracle`; both must outlive the engine.
  ///
  /// `context` lends the running's resources; everything in it must
  /// outlive the engine. The long-lived discovery service (src/service/)
  /// constructs one engine per query but lends every one of them its
  /// worker pool, its open record caches, its training fuser, and the
  /// query's span recorder (with `trace_parent` the query's "run" span).
  /// The engine resolves the context once: without a lent pool it owns one
  /// sized by ModisConfig::num_threads; without a lent cache it opens
  /// ModisConfig::record_cache_path itself (a broken log runs cold);
  /// CacheMode::kOff drops any cache; `write_through` is
  /// `cache_mode == kReadWrite`, and `fingerprint` is TaskFingerprint.
  /// Each batch gets a copy whose `trace_parent` is the batch span.
  ModisEngine(const SearchUniverse* universe, PerformanceOracle* oracle,
              ModisConfig config, ValuationContext context = {});

  /// Flushes the record cache, so the last batch's appends are durable.
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
  /// ExpandLevel; the context's parent for seed batches).
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

  /// What this running lends the oracle, resolved by the constructor.
  ValuationContext ctx_;
  /// The pool behind ctx_.pool when the caller lent none and more than
  /// one thread is configured.
  std::unique_ptr<ThreadPool> pool_;
  /// The cache behind ctx_.record_cache when the caller lent none and
  /// ModisConfig::record_cache_path opened cleanly.
  std::unique_ptr<PersistentRecordCache> record_cache_;

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
