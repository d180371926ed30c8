#ifndef MODIS_CORE_CONFIG_H_
#define MODIS_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace modis {

/// How a running uses the cross-run persistent record cache
/// (src/storage/persistent_record_cache.h; docs/PERSISTENCE.md).
enum class CacheMode : uint8_t {
  kOff,       // Never opened, even when a path is configured.
  kRead,      // Serve hits; never write new records.
  kReadWrite  // Serve hits and append every new exact valuation.
};

/// THE parser of the user-facing cache-mode spelling ("off" | "read" |
/// "read_write"), shared by the bench flags, the CLI, the server, and
/// the wire protocol so the accepted vocabulary can never drift.
inline Result<CacheMode> ParseCacheMode(const std::string& mode) {
  if (mode == "off") return CacheMode::kOff;
  if (mode == "read") return CacheMode::kRead;
  if (mode == "read_write") return CacheMode::kReadWrite;
  return Status::InvalidArgument("unknown cache mode '" + mode +
                                 "' (off | read | read_write)");
}

/// The spelling ParseCacheMode accepts for `mode`.
inline const char* CacheModeName(CacheMode mode) {
  if (mode == CacheMode::kOff) return "off";
  return mode == CacheMode::kRead ? "read" : "read_write";
}

/// Knobs of one MODis running. The published algorithms are feature
/// combinations of the same engine; ApplyVariantFlags (core/algorithms.h)
/// is the one mapping from a variant name to these flags.
struct ModisConfig {
  /// Approximation slack of the ε-skyline (§5.1).
  double epsilon = 0.2;
  /// N: the valuation budget of the (N, ε)-approximation.
  size_t max_states = 300;
  /// maxl: maximum path length (levels of the level-wise search, Exp-2).
  int max_level = 6;

  bool bidirectional = false;
  bool correlation_pruning = false;

  bool diversify = false;
  /// k: size cap of the diversified skyline set.
  size_t diversify_k = 5;
  /// α of Equation (2): content diversity vs performance diversity.
  double alpha = 0.5;

  /// θ: Spearman threshold of the correlation graph G_C.
  double theta = 0.8;
  /// Minimum valuated tests before pruning may fire.
  size_t min_records_for_pruning = 8;

  /// Decisive measure index; SIZE_MAX means the last measure in P.
  size_t decisive_measure = SIZE_MAX;

  /// Worker threads for the batched exact valuations of a frontier level:
  /// 0 picks the hardware concurrency, 1 runs serially on the caller
  /// thread. The search result is identical for every setting — the batch
  /// plan and its commit order are fixed on the caller thread — except for
  /// wall-clock-derived measures (e.g. "train_time"), which always carry
  /// scheduling noise.
  size_t num_threads = 0;

  /// Path of the cross-run persistent valuation-record log. Empty (the
  /// default) disables persistence. When set, the engine opens the log,
  /// serves previously recorded evaluations before any exact training,
  /// and (in kReadWrite mode) appends every new exact valuation after
  /// each batch commit. Records are scoped by a dataset/task fingerprint
  /// (schema + cell content + unit layout + measure set), so one file
  /// can be shared across tasks and config sweeps. The computed skyline
  /// is identical
  /// with the cache off, cold, or warm — a served record replays exactly
  /// what the training that produced it returned.
  std::string record_cache_path;
  CacheMode cache_mode = CacheMode::kReadWrite;
  /// Byte budget of the record-cache log file; 0 = unbounded. When a
  /// batch-commit flush leaves the log over this bound, least-recently-
  /// hit fingerprints (then records) are evicted and the log is compacted
  /// back under it — the knob that keeps a production cache from growing
  /// without limit.
  uint64_t record_cache_max_bytes = 0;
  /// Extra fingerprint salt. The fingerprint already hashes the model's
  /// identity (TaskEvaluator::ModelIdentity: model family, task kind,
  /// seed and test split), but not its hyperparameters, so two tasks
  /// whose models differ only in hyperparameters must be told apart here
  /// to avoid serving each other's records.
  std::string record_cache_namespace;

  uint64_t seed = 1;
};

}  // namespace modis

#endif  // MODIS_CORE_CONFIG_H_
