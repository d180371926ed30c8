#include "core/universe.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/tasks.h"
#include "ml/dataset.h"
#include "reference_encoder.h"

namespace modis {
namespace {

struct Fixture {
  TabularBench bench;
  SearchUniverse universe;

  static Fixture Make() {
    auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4);
    EXPECT_TRUE(bench.ok());
    auto uni =
        SearchUniverse::Build(bench->universal, bench->universe_options);
    EXPECT_TRUE(uni.ok());
    return {std::move(bench).value(), std::move(uni).value()};
  }
};

/// Checks every row path of `state` against the row-at-a-time reference
/// CountRowsScan: CountRows, the surviving mask, the record's row ids, and
/// the materialized table cell by cell against D_U. `carried_nulls` (may
/// be null) is set when the table holds a null cell.
void ExpectRowsMatchScan(const SearchUniverse& universe,
                         const StateBitmap& state, const std::string& context,
                         bool* carried_nulls = nullptr) {
  const size_t scan = universe.CountRowsScan(state);
  EXPECT_EQ(universe.CountRows(state), scan) << context;
  const RowMask mask = universe.SurvivingMask(state);
  EXPECT_EQ(mask.Count(), scan) << context;
  const MaterializationPtr m = universe.MaterializeRecord(state);
  EXPECT_EQ(m->mask, mask) << context;
  EXPECT_EQ(m->row_ids(), mask.ToRowIds()) << context;

  const Table table = universe.Materialize(state);
  const Table& du = universe.universal();
  ASSERT_EQ(table.num_rows(), scan) << context;
  size_t c = 0;
  for (size_t a = 0; a < du.num_cols(); ++a) {
    if (!state.Get(a)) continue;
    ASSERT_LT(c, table.num_cols()) << context;
    EXPECT_EQ(table.schema().field(c).name, du.schema().field(a).name)
        << context;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ASSERT_EQ(table.At(r, c), du.At(m->row_ids()[r], a))
          << context << " cell (" << r << "," << c << ")";
    }
    ++c;
  }
  EXPECT_EQ(c, table.num_cols()) << context;
  if (carried_nulls != nullptr) *carried_nulls = table.NullFraction() > 0.0;
}

// ------------------------------------------------------------- Mask vs scan

TEST(RowMaskTest, TailBitsStayZeroOnNonMultipleOf64Sizes) {
  RowMask full(70, true);
  EXPECT_EQ(full.Count(), 70u);
  EXPECT_TRUE(full.Get(69));

  RowMask sparse(70, false);
  EXPECT_EQ(sparse.Count(), 0u);
  sparse.Set(0, true);
  sparse.Set(63, true);
  sparse.Set(64, true);
  sparse.Set(69, true);
  EXPECT_EQ(sparse.Count(), 4u);
  EXPECT_EQ(sparse.ToRowIds(), (std::vector<uint32_t>{0, 63, 64, 69}));

  // ANDNOT against the complement must not conjure tail rows.
  full.AndNotWith(sparse);
  EXPECT_EQ(full.Count(), 66u);
  full.OrWith(sparse);
  EXPECT_EQ(full.Count(), 70u);

  std::vector<uint32_t> seen;
  sparse.ForEachSet([&seen](uint32_t r) { seen.push_back(r); });
  EXPECT_EQ(seen, sparse.ToRowIds());
}

TEST(RowMaskPathTest, CountRowsMatchesScanOnEveryOneFlipChild) {
  auto f = Fixture::Make();
  // The universal table comes from a full outer join, so it carries null
  // cells; materialization must hand them through untouched.
  ASSERT_GT(f.bench.universal.NullFraction(), 0.0)
      << "fixture lost its null cells; pick a task with an outer join";
  const UnitLayout& layout = f.universe.layout();
  const StateBitmap full = f.universe.FullBitmap();
  std::vector<StateBitmap> states = {full, f.universe.BackwardBitmap()};
  const size_t num_seeds = states.size();
  for (size_t s = 0; s < num_seeds; ++s) {
    for (size_t u = 0; u < layout.num_units(); ++u) {
      if (layout.IsAttributeUnit(u) && !layout.attr_flippable[u]) continue;
      states.push_back(states[s].WithFlipped(u));
    }
  }

  // A multi-step Reduct chain: alternate cluster and attribute flips
  // across the layout; odd steps walk from the back so cluster drops hit
  // attributes that stay included.
  StateBitmap state = full;
  size_t steps = 0;
  for (size_t u = 0; u < layout.num_units() && steps < 6; ++u) {
    const size_t unit = steps % 2 == 0 ? layout.num_units() - 1 - u : u;
    if (!state.Get(unit)) continue;
    if (layout.IsAttributeUnit(unit)) {
      if (!layout.attr_flippable[unit]) continue;
    } else if (!state.Get(layout.cluster(unit).attr_index)) {
      continue;  // Cluster flips need their attribute included.
    }
    state = state.WithFlipped(unit);
    states.push_back(state);
    ++steps;
  }
  EXPECT_GE(steps, 4u);

  // A cluster drop with its attribute included, and the relax edge that
  // resurrects its rows.
  ASSERT_FALSE(layout.clusters.empty());
  const size_t cluster = layout.num_attributes();
  const StateBitmap dropped = full.WithFlipped(cluster);
  ASSERT_LT(f.universe.CountRowsScan(dropped), f.bench.universal.num_rows())
      << "cluster drop removed no rows; test would be vacuous";
  states.push_back(dropped);
  states.push_back(dropped.WithFlipped(cluster));

  size_t nontrivial = 0;
  size_t null_tables = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    bool carried_nulls = false;
    ExpectRowsMatchScan(f.universe, states[i], "state " + std::to_string(i),
                        &carried_nulls);
    if (f.universe.CountRowsScan(states[i]) < f.bench.universal.num_rows()) {
      ++nontrivial;
    }
    if (carried_nulls) ++null_tables;
  }
  EXPECT_GT(nontrivial, 0u) << "no state filtered any row; battery vacuous";
  EXPECT_GT(null_tables, 0u) << "no state's table carried nulls";
}

TEST(RowMaskPathTest, MaskExactOnNonMultipleOf64Universe) {
  // A handcrafted 70-row universe (not a multiple of 64) with null cells:
  // the word-level path must neither lose the last partial word's rows nor
  // resurrect tail garbage, and null cells must survive every reduction.
  Table t(Schema({{"target", ColumnType::kNumeric},
                  {"x", ColumnType::kNumeric},
                  {"y", ColumnType::kCategorical}}));
  for (int64_t r = 0; r < 70; ++r) {
    std::vector<Value> row;
    row.push_back(Value(static_cast<double>(r % 2)));
    row.push_back(r % 7 == 0 ? Value::Null()
                             : Value(static_cast<double>(r % 5)));
    row.push_back(r % 11 == 0
                      ? Value::Null()
                      : Value(std::string(
                            1, static_cast<char>('a' + static_cast<int>(r % 3)))));
    ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  ASSERT_GT(t.NullFraction(), 0.0);

  SearchUniverse::Options opts;
  opts.protected_attributes = {"target"};
  opts.max_clusters = 3;
  auto uni = SearchUniverse::Build(std::move(t), opts);
  ASSERT_TRUE(uni.ok());
  const UnitLayout& layout = uni->layout();
  ASSERT_FALSE(layout.clusters.empty());

  const StateBitmap full = uni->FullBitmap();
  EXPECT_EQ(uni->CountRows(full), 70u);
  ExpectRowsMatchScan(*uni, full, "70-row full");
  for (size_t u = 0; u < layout.num_units(); ++u) {
    if (layout.IsAttributeUnit(u) && !layout.attr_flippable[u]) continue;
    const StateBitmap child = full.WithFlipped(u);
    ExpectRowsMatchScan(*uni, child, "70-row reduct unit " + std::to_string(u));
    if (layout.IsAttributeUnit(u)) continue;
    // Excluding the attribute lifts its dropped cluster's constraint.
    ExpectRowsMatchScan(*uni, child.WithFlipped(layout.cluster(u).attr_index),
                        "70-row excluded attribute of unit " +
                            std::to_string(u));
  }
}

// ------------------------------------------------ Gather vs table encoder

/// Asserts the gathered dataset is bit for bit the reference encoding:
/// the same error status, or the same x, y, names, classes and labels.
void ExpectSameDataset(const Result<MlDataset>& gathered,
                       const Result<MlDataset>& expected,
                       const std::string& context) {
  ASSERT_EQ(gathered.ok(), expected.ok())
      << context << ": " << gathered.status().ToString() << " vs "
      << expected.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(gathered.status().code(), expected.status().code()) << context;
    EXPECT_EQ(gathered.status().message(), expected.status().message())
        << context;
    return;
  }
  const MlDataset& g = gathered.value();
  const MlDataset& e = expected.value();
  EXPECT_EQ(g.feature_names, e.feature_names) << context;
  EXPECT_EQ(g.task, e.task) << context;
  EXPECT_EQ(g.num_classes, e.num_classes) << context;
  EXPECT_EQ(g.class_labels, e.class_labels) << context;
  ASSERT_EQ(g.x.rows(), e.x.rows()) << context;
  ASSERT_EQ(g.x.cols(), e.x.cols()) << context;
  for (size_t r = 0; r < g.x.rows(); ++r) {
    ASSERT_EQ(std::memcmp(g.x.Row(r), e.x.Row(r), g.x.cols() * sizeof(double)),
              0)
        << context << " x row " << r;
  }
  ASSERT_EQ(g.y.size(), e.y.size()) << context;
  EXPECT_EQ(std::memcmp(g.y.data(), e.y.data(), g.y.size() * sizeof(double)),
            0)
      << context << " y";
}

/// How many checked states exercised each case the gather must get right.
struct GatherCoverage {
  size_t states = 0;
  size_t null_cells = 0;
  size_t lost_category = 0;  // A categorical feature lost values.
  size_t lost_class = 0;     // A classification state lost a class.
  size_t null_targets = 0;   // Rows dropped for a null target.
  size_t no_features = 0;    // Only protected columns (or none) left.
  size_t errors = 0;         // Both encoders refused the state.
};

/// Gathers `state` from the encoded D_U and checks it against the
/// reference encoding of Materialize(state) — and TableToDataset of that
/// table against it too, since it is now a gather over the whole table.
void CheckGather(const SearchUniverse& universe, const StateBitmap& state,
                 const SupervisedTask& task, const std::string& context,
                 GatherCoverage* coverage) {
  BridgeOptions bridge;
  bridge.exclude = task.exclude;
  const MaterializationPtr m = universe.MaterializeRecord(state);
  const DatasetView view = universe.View(*m);
  const Table table = universe.Materialize(state);
  const Result<MlDataset> expected =
      ReferenceTableToDataset(table, task.target, task.task, bridge);
  ExpectSameDataset(GatherDataset(*view.encoded, *view.rows, view.columns,
                                  task.target, task.task, bridge),
                    expected, context);
  ExpectSameDataset(TableToDataset(table, task.target, task.task, bridge),
                    expected, context + " (TableToDataset)");

  ++coverage->states;
  if (table.NullFraction() > 0.0) ++coverage->null_cells;
  if (!expected.ok()) {
    ++coverage->errors;
    return;
  }
  if (expected->num_features() == 0) ++coverage->no_features;
  if (expected->num_rows() < table.num_rows()) ++coverage->null_targets;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    const Field& field = table.schema().field(c);
    if (field.type != ColumnType::kCategorical || field.name == task.target) {
      continue;
    }
    const size_t all = universe.universal().DistinctCount(
        *universe.universal().schema().FindField(field.name));
    if (table.DistinctCount(c) < all) {
      ++coverage->lost_category;
      break;
    }
  }
  if (task.task == TaskKind::kClassification) {
    std::set<Value> classes;
    const size_t t = *universe.universal().schema().FindField(task.target);
    for (const Value& v : universe.universal().column(t)) {
      if (!v.is_null()) classes.insert(v);
    }
    if (static_cast<size_t>(expected->num_classes) < classes.size()) {
      ++coverage->lost_class;
    }
  }
}

/// The full, backward and protected-only states plus seeded random ones:
/// each flippable attribute kept with p = 0.6, each cluster bit dropped
/// with p = 0.25, and every eighth state also drops a protected column.
std::vector<StateBitmap> GatherStates(const SearchUniverse& universe,
                                      uint64_t seed) {
  const UnitLayout& layout = universe.layout();
  StateBitmap protected_only(layout.num_units(), false);
  for (size_t a = 0; a < layout.num_attributes(); ++a) {
    if (!layout.attr_flippable[a]) protected_only.Set(a, true);
  }
  std::vector<StateBitmap> states = {universe.FullBitmap(),
                                     universe.BackwardBitmap(), protected_only};
  Rng rng(seed);
  for (size_t i = 0; i < 40; ++i) {
    StateBitmap state(layout.num_units(), true);
    for (size_t a = 0; a < layout.num_attributes(); ++a) {
      if (layout.attr_flippable[a]) {
        state.Set(a, rng.Bernoulli(0.6));
      } else if (i % 8 == 7) {
        state.Set(a, false);
      }
    }
    for (size_t u = layout.num_attributes(); u < layout.num_units(); ++u) {
      state.Set(u, !rng.Bernoulli(0.25));
    }
    states.push_back(state);
  }
  return states;
}

TEST(GatherDatasetTest, MatchesTableEncoderOnSeededStatesOfEveryTask) {
  GatherCoverage coverage;
  for (BenchTaskId id :
       {BenchTaskId::kMovie, BenchTaskId::kHouse, BenchTaskId::kAvocado,
        BenchTaskId::kMental, BenchTaskId::kXray, BenchTaskId::kFeaturePool}) {
    auto bench = MakeTabularBench(id, 0.3);
    ASSERT_TRUE(bench.ok()) << BenchTaskName(id);
    auto uni = SearchUniverse::Build(bench->universal, bench->universe_options);
    ASSERT_TRUE(uni.ok()) << BenchTaskName(id);
    const std::vector<StateBitmap> states =
        GatherStates(*uni, 101 + static_cast<uint64_t>(id));
    for (size_t i = 0; i < states.size(); ++i) {
      CheckGather(*uni, states[i], bench->task,
                  std::string(BenchTaskName(id)) + " state " +
                      std::to_string(i),
                  &coverage);
    }
  }
  // The battery must actually reach the cases the gather re-derives.
  EXPECT_GT(coverage.null_cells, 0u);
  EXPECT_GT(coverage.lost_category, 0u);
  EXPECT_GT(coverage.lost_class, 0u);
  EXPECT_GT(coverage.no_features, 0u);
  EXPECT_GT(coverage.errors, 0u);
}

TEST(GatherDatasetTest, MatchesTableEncoderOnHandcraftedEdgeCases) {
  // Null features, null targets, an int/double mix in a numeric column, a
  // numeric key, and a categorical column whose values die with the
  // clusters of "x".
  Table t(Schema({{"id", ColumnType::kNumeric},
                  {"x", ColumnType::kNumeric},
                  {"c", ColumnType::kCategorical},
                  {"label", ColumnType::kCategorical},
                  {"y", ColumnType::kNumeric}}));
  const char* const kLetters[] = {"a", "b", "c", "d", "e", "f"};
  const char* const kClasses[] = {"lo", "lo", "mid", "mid", "hi", "hi"};
  for (int64_t r = 0; r < 90; ++r) {
    const int64_t k = r % 6;
    Value x = r % 2 == 0 ? Value(k) : Value(static_cast<double>(k) + 0.5);
    std::vector<Value> row;
    row.push_back(Value(r));
    row.push_back(r % 9 == 0 ? Value::Null() : x);
    row.push_back(r % 13 == 0 ? Value::Null() : Value(kLetters[k]));
    row.push_back(r % 17 == 0 ? Value::Null() : Value(kClasses[k]));
    row.push_back(r % 11 == 0 ? Value::Null()
                              : Value(static_cast<double>(r) * 0.25));
    ASSERT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  SearchUniverse::Options opts;
  opts.protected_attributes = {"id", "label", "y"};
  opts.max_clusters = 4;
  auto uni = SearchUniverse::Build(std::move(t), opts);
  ASSERT_TRUE(uni.ok());

  SupervisedTask classify;
  classify.target = "label";
  classify.task = TaskKind::kClassification;
  classify.exclude = {"id"};
  SupervisedTask regress;
  regress.target = "y";
  regress.task = TaskKind::kRegression;
  regress.exclude = {"id", "label"};
  SupervisedTask not_numeric;  // A categorical regression target.
  not_numeric.target = "label";
  not_numeric.task = TaskKind::kRegression;

  // Plus every single-cluster drop: the "hi" class lives only in the top
  // values of "x", so one of these loses it.
  std::vector<StateBitmap> states = GatherStates(*uni, 7);
  for (size_t u = uni->layout().num_attributes(); u < uni->layout().num_units();
       ++u) {
    states.push_back(uni->FullBitmap().WithFlipped(u));
  }
  GatherCoverage coverage;
  for (size_t i = 0; i < states.size(); ++i) {
    const std::string context = "edge state " + std::to_string(i);
    CheckGather(*uni, states[i], classify, context + " classify", &coverage);
    CheckGather(*uni, states[i], regress, context + " regress", &coverage);
    CheckGather(*uni, states[i], not_numeric, context + " not numeric",
                &coverage);
  }
  EXPECT_GT(coverage.null_cells, 0u);
  EXPECT_GT(coverage.null_targets, 0u);

  // A numeric column the universe did not code cannot be a class target:
  // the gather refuses instead of guessing the class order.
  const MaterializationPtr full = uni->MaterializeRecord(uni->FullBitmap());
  const DatasetView view = uni->View(*full);
  const Result<MlDataset> uncoded =
      GatherDataset(*view.encoded, *view.rows, view.columns, "x",
                    TaskKind::kClassification);
  ASSERT_FALSE(uncoded.ok());
  EXPECT_EQ(uncoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(coverage.lost_category, 0u);
  EXPECT_GT(coverage.lost_class, 0u);
  EXPECT_GT(coverage.no_features, 0u);
  EXPECT_GT(coverage.errors, 0u);
}

}  // namespace
}  // namespace modis
