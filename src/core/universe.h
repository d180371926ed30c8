#ifndef MODIS_CORE_UNIVERSE_H_
#define MODIS_CORE_UNIVERSE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/row_mask.h"
#include "core/state.h"
#include "ml/dataset.h"
#include "table/table.h"

namespace modis {

/// One materialized state: the surviving-row bitset over D_U and the state
/// itself. The dataset is never copied out: an exact valuation gathers it
/// from the universe's encoding of D_U through SearchUniverse::View.
struct Materialization {
  StateBitmap state;
  RowMask mask;

  /// The surviving universal-row ids in ascending order, derived from
  /// `mask` on first call and memoized. Thread-safe.
  const std::vector<uint32_t>& row_ids() const;

 private:
  mutable std::once_flag row_ids_once_;
  mutable std::vector<uint32_t> row_ids_;
};

using MaterializationPtr = std::shared_ptr<const Materialization>;

/// The dataset exploration space of one MODis running: the universal table
/// D_U, its one-time learning encoding, the unit layout of state bitmaps,
/// and fast materialization of the dataset any bitmap denotes.
///
/// Built once per task; all search algorithms share it. The row space is
/// columnar: every cluster unit gets a precomputed RowMask of the rows it
/// covers, so the rows a state denotes are the full universe minus the
/// union of its active off-cluster masks — word-level ANDNOTs, no
/// row-at-a-time scan. Exact valuations train on a DatasetView (the
/// surviving row ids and active columns over the encoding) and never copy
/// a table.
class SearchUniverse {
 public:
  struct Options {
    /// Attributes that operators must not touch (target column, join
    /// keys). Their values are rank-coded in the encoding of D_U, which a
    /// classification target needs.
    std::vector<std::string> protected_attributes;
    /// Maximum active-domain clusters per attribute (paper uses 30).
    int max_clusters = 8;
    uint64_t seed = 17;
  };

  /// Builds the universe over an already-constructed universal table.
  static Result<SearchUniverse> Build(Table universal, Options options);

  const Table& universal() const { return universal_; }
  /// D_U encoded once (ml/dataset.h): what every exact valuation gathers
  /// its training rows from.
  const EncodedTable& encoded() const { return encoded_; }
  const UnitLayout& layout() const { return layout_; }

  /// The start state of the reduce-from-universal search: every unit on.
  StateBitmap FullBitmap() const;

  /// The backward start state of BiMODis (procedure BackSt): only the
  /// protected attributes plus the single most class-covering attribute are
  /// included; all cluster bits stay on so augmentation re-introduces whole
  /// attributes.
  StateBitmap BackwardBitmap() const;

  /// The dataset D_s denoted by a bitmap: included columns only, rows
  /// filtered by the active cluster bits of included attributes.
  Table Materialize(const StateBitmap& state) const;

  /// The state's surviving-row mask, the bookkeeping View needs; no table
  /// is built.
  MaterializationPtr MaterializeRecord(const StateBitmap& state) const;

  /// The dataset `m` denotes as a view over D_U and its encoding: what
  /// TaskEvaluator::Evaluate trains on. Borrows from `m` and the universe.
  DatasetView View(const Materialization& m) const;

  /// MaterializeRecord(child); `parent` is ignored. Kept only for the
  /// bench/e2e `core.materialize_from_us` probe until that probe is
  /// retired.
  MaterializationPtr MaterializeFrom(const Materialization& parent,
                                     const StateBitmap& child) const;

  /// The surviving-row bitset of `state`: full universe ANDNOT the mask of
  /// every active off cluster. Word-level; no per-row work.
  RowMask SurvivingMask(const StateBitmap& state) const;

  /// Row count of Materialize(state) without building the table — a
  /// SurvivingMask popcount.
  size_t CountRows(const StateBitmap& state) const;

  /// The seed's row-at-a-time reference counter. Kept for the mask-vs-scan
  /// property battery; O(rows × attrs).
  size_t CountRowsScan(const StateBitmap& state) const;

  /// Fraction helpers used by the pruning heuristics and state features.
  double RowFraction(const StateBitmap& state) const;
  double ColumnFraction(const StateBitmap& state) const;

  /// State features for the surrogate: the bitmap plus row/column
  /// fractions.
  std::vector<double> StateFeatures(const StateBitmap& state) const;

 private:
  SearchUniverse() = default;

  /// True if row `r` survives under `state` (reference semantics; the mask
  /// path must agree with this row-at-a-time definition).
  bool RowSurvives(const StateBitmap& state, size_t r) const;

  /// The attribute indices `state` includes, ascending.
  std::vector<size_t> ActiveColumns(const StateBitmap& state) const;

  Table universal_;
  EncodedTable encoded_;
  UnitLayout layout_;
  /// cluster_of_[r * num_attrs + a]: index of the cluster *unit* (bitmap
  /// position) containing row r's value of attribute a, or -1 when the
  /// value is null / uncovered by any literal (such rows never get removed
  /// by cluster reductions on a).
  std::vector<int32_t> cluster_of_;
  /// cluster_masks_[cu]: the rows assigned to cluster unit cu (the rows an
  /// active "cluster off" constraint removes). Disjoint per attribute.
  std::vector<RowMask> cluster_masks_;
};

}  // namespace modis

#endif  // MODIS_CORE_UNIVERSE_H_
