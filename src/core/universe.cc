#include "core/universe.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace modis {

const std::vector<uint32_t>& Materialization::row_ids() const {
  std::call_once(row_ids_once_, [this] { row_ids_ = mask.ToRowIds(); });
  return row_ids_;
}

Result<SearchUniverse> SearchUniverse::Build(Table universal,
                                             Options options) {
  if (universal.num_cols() == 0) {
    return Status::InvalidArgument("SearchUniverse: empty universal schema");
  }
  SearchUniverse u;
  u.universal_ = std::move(universal);
  u.encoded_ = EncodeTable(u.universal_, options.protected_attributes);

  std::unordered_set<std::string> protected_set(
      options.protected_attributes.begin(),
      options.protected_attributes.end());
  for (const auto& name : options.protected_attributes) {
    if (!u.universal_.schema().HasField(name)) {
      return Status::NotFound("SearchUniverse: protected attribute " + name +
                              " not in universal schema");
    }
  }

  // Attribute units follow the universal schema order.
  for (size_t c = 0; c < u.universal_.num_cols(); ++c) {
    const std::string& name = u.universal_.schema().field(c).name;
    u.layout_.attributes.push_back(name);
    u.layout_.attr_flippable.push_back(protected_set.count(name) == 0);
  }

  // Cluster units from the derived literals, flattened per attribute.
  Rng rng(options.seed);
  const std::vector<AttributeLiterals> literal_sets =
      DeriveLiterals(u.universal_, options.max_clusters, &rng);
  MODIS_CHECK(literal_sets.size() == u.layout_.attributes.size())
      << "literal derivation width mismatch";
  for (size_t a = 0; a < literal_sets.size(); ++a) {
    if (!u.layout_.attr_flippable[a]) continue;  // No ops on protected attrs.
    for (const Literal& lit : literal_sets[a].literals) {
      u.layout_.clusters.push_back({a, lit});
    }
  }

  // Precompute row -> cluster-unit assignment and, columnwise, the per
  // cluster-unit row masks the word-level materializer works on. Cluster
  // assignment is first-literal-match, so the masks of one attribute are
  // disjoint.
  const size_t num_attrs = u.layout_.num_attributes();
  const size_t rows = u.universal_.num_rows();
  u.cluster_of_.assign(rows * num_attrs, -1);
  u.cluster_masks_.assign(u.layout_.clusters.size(), RowMask(rows, false));
  for (size_t cu = 0; cu < u.layout_.clusters.size(); ++cu) {
    const UnitLayout::ClusterUnit& unit = u.layout_.clusters[cu];
    const int32_t bit = static_cast<int32_t>(num_attrs + cu);
    const Column& col = u.universal_.column(unit.attr_index);
    for (size_t r = 0; r < rows; ++r) {
      if (u.cluster_of_[r * num_attrs + unit.attr_index] >= 0) continue;
      if (unit.literal.Matches(col[r])) {
        u.cluster_of_[r * num_attrs + unit.attr_index] = bit;
        u.cluster_masks_[cu].Set(r, true);
      }
    }
  }
  return u;
}

StateBitmap SearchUniverse::FullBitmap() const {
  return StateBitmap(layout_.num_units(), true);
}

StateBitmap SearchUniverse::BackwardBitmap() const {
  StateBitmap state(layout_.num_units(), false);
  // Cluster bits all on: augmentation re-introduces whole attributes with
  // their full active domains.
  for (size_t cu = 0; cu < layout_.clusters.size(); ++cu) {
    state.Set(layout_.num_attributes() + cu, true);
  }
  // Protected attributes (target, keys) are always included.
  size_t first_flippable = layout_.num_attributes();
  for (size_t a = 0; a < layout_.num_attributes(); ++a) {
    if (!layout_.attr_flippable[a]) {
      state.Set(a, true);
    } else if (first_flippable == layout_.num_attributes()) {
      first_flippable = a;
    }
  }
  // Seed one feature attribute so the minimal dataset is trainable
  // (BackSt's "cover all classes with a small tuple set" — here the full
  // column of the first flippable attribute).
  if (first_flippable < layout_.num_attributes()) {
    state.Set(first_flippable, true);
  }
  return state;
}

bool SearchUniverse::RowSurvives(const StateBitmap& state, size_t r) const {
  const size_t num_attrs = layout_.num_attributes();
  for (size_t a = 0; a < num_attrs; ++a) {
    if (!state.Get(a)) continue;  // Excluded column: no row constraint.
    const int32_t bit = cluster_of_[r * num_attrs + a];
    if (bit >= 0 && !state.Get(static_cast<size_t>(bit))) return false;
  }
  return true;
}

RowMask SearchUniverse::SurvivingMask(const StateBitmap& state) const {
  const size_t num_attrs = layout_.num_attributes();
  RowMask mask(universal_.num_rows(), true);
  // A row dies iff some *included* attribute has it in an *off* cluster;
  // null / uncovered cells sit in no cluster mask and are never removed.
  for (size_t cu = 0; cu < layout_.clusters.size(); ++cu) {
    if (!state.Get(layout_.clusters[cu].attr_index)) continue;
    if (state.Get(num_attrs + cu)) continue;
    mask.AndNotWith(cluster_masks_[cu]);
  }
  return mask;
}

std::vector<size_t> SearchUniverse::ActiveColumns(
    const StateBitmap& state) const {
  std::vector<size_t> cols;
  for (size_t a = 0; a < layout_.num_attributes(); ++a) {
    if (state.Get(a)) cols.push_back(a);
  }
  return cols;
}

Table SearchUniverse::Materialize(const StateBitmap& state) const {
  return View(*MaterializeRecord(state)).ToTable();
}

MaterializationPtr SearchUniverse::MaterializeRecord(
    const StateBitmap& state) const {
  MODIS_CHECK(state.size() == layout_.num_units()) << "bitmap size mismatch";
  auto m = std::make_shared<Materialization>();
  m->state = state;
  m->mask = SurvivingMask(state);
  return m;
}

DatasetView SearchUniverse::View(const Materialization& m) const {
  DatasetView view;
  view.table = &universal_;
  view.encoded = &encoded_;
  view.rows = &m.row_ids();
  view.columns = ActiveColumns(m.state);
  return view;
}

MaterializationPtr SearchUniverse::MaterializeFrom(
    const Materialization& /*parent*/, const StateBitmap& child) const {
  return MaterializeRecord(child);
}

size_t SearchUniverse::CountRows(const StateBitmap& state) const {
  return SurvivingMask(state).Count();
}

size_t SearchUniverse::CountRowsScan(const StateBitmap& state) const {
  size_t n = 0;
  for (size_t r = 0; r < universal_.num_rows(); ++r) {
    if (RowSurvives(state, r)) ++n;
  }
  return n;
}

double SearchUniverse::RowFraction(const StateBitmap& state) const {
  if (universal_.num_rows() == 0) return 0.0;
  return static_cast<double>(CountRows(state)) /
         static_cast<double>(universal_.num_rows());
}

double SearchUniverse::ColumnFraction(const StateBitmap& state) const {
  size_t on = 0;
  for (size_t a = 0; a < layout_.num_attributes(); ++a) {
    if (state.Get(a)) ++on;
  }
  return static_cast<double>(on) /
         static_cast<double>(layout_.num_attributes());
}

std::vector<double> SearchUniverse::StateFeatures(
    const StateBitmap& state) const {
  std::vector<double> f = state.Features();
  f.push_back(RowFraction(state));
  f.push_back(ColumnFraction(state));
  return f;
}

}  // namespace modis
