#ifndef MODIS_ESTIMATOR_TRAINING_FUSER_H_
#define MODIS_ESTIMATOR_TRAINING_FUSER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "estimator/measure.h"

namespace modis {

/// Dedups exact model trainings across concurrent queries.
///
/// Exact trainings are deterministic functions of (task fingerprint, state
/// signature): the fingerprint pins the universal table's content, the
/// unit layout, the measure set, and the task model's identity, and every
/// model trains under fixed seeds. Two queries asking for the same
/// training must therefore get byte-identical evaluations — so the service
/// runs the training once and shares the result.
///
/// Concurrency contract: the first caller of a (fingerprint, key) pair
/// becomes the *leader* and runs `train` inline on its own thread; callers
/// arriving while the training is in flight block on a shared future.
/// Leadership is claimed at execution time and leaders never wait on the
/// fuser, so waiters always sit behind a thread that is actively training
/// — no cycle, no deadlock, regardless of how many pool workers block.
/// Completed results are memoized in an LRU of kMemoCapacity entries so
/// overlapping queries that do not overlap in *time* still train each
/// unique state once.
class TrainingFuser {
 public:
  /// Completed trainings kept in the LRU memo.
  static constexpr size_t kMemoCapacity = 4096;

  /// The outcome of one Train call.
  struct Outcome {
    Result<Evaluation> result;
    /// Training seconds paid by this call (0 when the result was shared).
    double seconds = 0.0;
    /// True when another query's training produced the result.
    bool shared = false;

    Outcome() : result(Status::Internal("training not executed")) {}
  };

  using TrainFn = std::function<Result<Evaluation>()>;

  /// Runs (or joins) the exact training identified by (fingerprint, key):
  /// executes `train` at most once across all concurrent callers of the
  /// pair and hands everyone the same result. Failed trainings are shared
  /// with in-flight waiters but never memoized, so a transient failure is
  /// retried by the next query.
  Outcome Train(uint64_t fingerprint, const std::string& key,
                const TrainFn& train);

 private:
  using MemoEntry = std::pair<std::string, Result<Evaluation>>;

  static std::string FusedKey(uint64_t fingerprint, const std::string& key);

  std::mutex mu_;
  /// Trainings currently executing, by fused key; waiters share the future.
  std::unordered_map<std::string, std::shared_future<Result<Evaluation>>>
      in_flight_;
  /// Completed OK trainings, LRU-bounded. Front = most recently used.
  std::list<MemoEntry> memo_lru_;
  std::unordered_map<std::string, std::list<MemoEntry>::iterator> memo_index_;
};

}  // namespace modis

#endif  // MODIS_ESTIMATOR_TRAINING_FUSER_H_
