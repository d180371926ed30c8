#ifndef MODIS_ESTIMATOR_TASK_EVALUATOR_H_
#define MODIS_ESTIMATOR_TASK_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "estimator/measure.h"
#include "ml/dataset.h"
#include "table/table.h"

namespace modis {

/// Trains the task's fixed deterministic model M on a candidate dataset and
/// measures the raw + normalized performance vector.
///
/// This is the "actual model inference test" of the paper's evaluation
/// protocol; PerformanceOracle wraps it with caching, and its MO-GBM
/// surrogate learns to imitate it.
class TaskEvaluator {
 public:
  virtual ~TaskEvaluator() = default;

  /// The user-defined measure set P, in vector order.
  virtual const std::vector<MeasureSpec>& measures() const = 0;

  /// A stable identity string of the fixed model M this task trains —
  /// family plus the knobs that change its predictions. It flows into the
  /// persistent-cache task fingerprint (ModisEngine::TaskFingerprint), so
  /// two tasks that differ only in the trained model never share recorded
  /// evaluations (docs/PERSISTENCE.md §4). Must be deterministic; an empty
  /// string opts out (records then collide across models sharing D_U and
  /// measures, distinguishable only by the cache namespace).
  virtual std::string ModelIdentity() const { return std::string(); }

  /// Trains and evaluates on `dataset`. Implementations must be
  /// deterministic for a fixed dataset (fixed seeds) and safe to call
  /// concurrently from multiple threads — the batched valuation pipeline
  /// fans exact trainings out over a thread pool, so an Evaluate call may
  /// only read shared members and must keep all training state (model
  /// clone, RNGs, splits) local. Fails on datasets the model cannot be
  /// trained on (e.g. no rows, missing target).
  virtual Result<Evaluation> Evaluate(const Table& dataset) = 0;

  /// Trains and evaluates on the dataset `view` selects — the search's
  /// exact-valuation path (SearchUniverse::View), under the same contract
  /// as Evaluate(Table). Evaluators with a learning encoding gather it
  /// straight from `view.encoded`; this default copies the selection out
  /// as a Table and evaluates that.
  virtual Result<Evaluation> Evaluate(const DatasetView& view) {
    return Evaluate(view.ToTable());
  }
};

}  // namespace modis

#endif  // MODIS_ESTIMATOR_TASK_EVALUATOR_H_
