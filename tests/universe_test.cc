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

void ExpectTablesEqual(const Table& actual, const Table& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.num_cols(), expected.num_cols()) << context;
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << context;
  for (size_t c = 0; c < actual.num_cols(); ++c) {
    EXPECT_EQ(actual.schema().field(c).name, expected.schema().field(c).name)
        << context;
  }
  for (size_t r = 0; r < actual.num_rows(); ++r) {
    for (size_t c = 0; c < actual.num_cols(); ++c) {
      ASSERT_EQ(actual.At(r, c), expected.At(r, c))
          << context << " cell (" << r << "," << c << ")";
    }
  }
}

void ExpectIncrementalMatchesFresh(const SearchUniverse& universe,
                                   const Materialization& parent,
                                   const StateBitmap& child,
                                   const std::string& context) {
  MaterializationPtr inc = universe.MaterializeFrom(parent, child);
  MaterializationPtr fresh = universe.MaterializeRecord(child);
  ASSERT_NE(inc, nullptr) << context;
  EXPECT_EQ(inc->mask, fresh->mask) << context;
  EXPECT_EQ(inc->row_ids(), fresh->row_ids()) << context;
  EXPECT_EQ(inc->mask.Count(), universe.CountRowsScan(child)) << context;
  ExpectTablesEqual(universe.View(*inc).ToTable(),
                    universe.Materialize(child), context);
}

TEST(MaterializeFromTest, ReductEdgesFromUniversalState) {
  auto f = Fixture::Make();
  const UnitLayout& layout = f.universe.layout();
  const StateBitmap full = f.universe.FullBitmap();
  const MaterializationPtr parent = f.universe.MaterializeRecord(full);

  for (size_t u = 0; u < layout.num_units(); ++u) {
    if (layout.IsAttributeUnit(u) && !layout.attr_flippable[u]) continue;
    ExpectIncrementalMatchesFresh(f.universe, *parent, full.WithFlipped(u),
                                  "reduct unit " + std::to_string(u));
  }
}

TEST(MaterializeFromTest, ReductChainReusesIncrementalParents) {
  // Walk a multi-step Reduct path, deriving every level from the previous
  // *incremental* materialization — errors would compound if any edge
  // diverged from a fresh scan.
  auto f = Fixture::Make();
  const UnitLayout& layout = f.universe.layout();
  StateBitmap state = f.universe.FullBitmap();
  MaterializationPtr parent = f.universe.MaterializeRecord(state);

  size_t steps = 0;
  // Alternate cluster and attribute flips across the layout: odd units
  // walk from the back so cluster drops hit attributes that stay included.
  for (size_t u = 0; u < layout.num_units() && steps < 6; ++u) {
    const size_t unit = steps % 2 == 0 ? layout.num_units() - 1 - u : u;
    if (!state.Get(unit)) continue;
    if (layout.IsAttributeUnit(unit)) {
      if (!layout.attr_flippable[unit]) continue;
    } else if (!state.Get(layout.cluster(unit).attr_index)) {
      continue;  // Cluster flips need their attribute included.
    }
    StateBitmap child = state.WithFlipped(unit);
    ExpectIncrementalMatchesFresh(f.universe, *parent, child,
                                  "chain unit " + std::to_string(unit));
    parent = f.universe.MaterializeFrom(*parent, child);
    state = child;
    ++steps;
  }
  EXPECT_GE(steps, 4u);
}

TEST(MaterializeFromTest, AugmentEdgesFromBackwardState) {
  auto f = Fixture::Make();
  const UnitLayout& layout = f.universe.layout();
  const StateBitmap back = f.universe.BackwardBitmap();
  const MaterializationPtr parent = f.universe.MaterializeRecord(back);

  for (size_t u = 0; u < layout.num_units(); ++u) {
    if (back.Get(u)) continue;  // Augment flips 0 -> 1.
    if (layout.IsAttributeUnit(u) && !layout.attr_flippable[u]) continue;
    ExpectIncrementalMatchesFresh(f.universe, *parent, back.WithFlipped(u),
                                  "augment unit " + std::to_string(u));
  }
}

TEST(MaterializeFromTest, AugmentClusterEdgeAfterClusterDrop) {
  // Exercise the relaxing cluster flip 0 -> 1 with its attribute included:
  // rows removed by the dropped cluster must resurrect exactly.
  auto f = Fixture::Make();
  const UnitLayout& layout = f.universe.layout();
  ASSERT_FALSE(layout.clusters.empty());
  const size_t unit = layout.num_attributes();  // First cluster unit.

  StateBitmap reduced = f.universe.FullBitmap().WithFlipped(unit);
  const MaterializationPtr parent = f.universe.MaterializeRecord(reduced);
  ASSERT_LT(parent->row_ids().size(), f.bench.universal.num_rows())
      << "cluster drop removed no rows; test would be vacuous";
  ExpectIncrementalMatchesFresh(f.universe, *parent,
                                reduced.WithFlipped(unit),
                                "cluster resurrect");
}

TEST(MaterializeFromTest, PreservesNullCells) {
  // The universal table comes from a full outer join, so it carries null
  // cells; incremental materialization must hand them through untouched.
  auto f = Fixture::Make();
  ASSERT_GT(f.bench.universal.NullFraction(), 0.0)
      << "fixture lost its null cells; pick a task with an outer join";

  const StateBitmap full = f.universe.FullBitmap();
  const MaterializationPtr parent = f.universe.MaterializeRecord(full);
  const UnitLayout& layout = f.universe.layout();
  size_t checked = 0;
  for (size_t u = 0; u < layout.num_units() && checked < 3; ++u) {
    if (layout.IsAttributeUnit(u) && !layout.attr_flippable[u]) continue;
    StateBitmap child = full.WithFlipped(u);
    MaterializationPtr inc = f.universe.MaterializeFrom(*parent, child);
    const Table table = f.universe.View(*inc).ToTable();
    if (table.NullFraction() == 0.0) continue;
    ExpectTablesEqual(table, f.universe.Materialize(child),
                      "null-carrying child " + std::to_string(u));
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no child table carried nulls";
}

TEST(MaterializeFromTest, FallsBackOnMultiFlipEdges) {
  auto f = Fixture::Make();
  const UnitLayout& layout = f.universe.layout();
  const StateBitmap full = f.universe.FullBitmap();
  const MaterializationPtr parent = f.universe.MaterializeRecord(full);

  size_t a = layout.num_attributes(), b = layout.num_attributes();
  for (size_t u = 0; u < layout.num_attributes(); ++u) {
    if (!layout.attr_flippable[u]) continue;
    if (a == layout.num_attributes()) {
      a = u;
    } else {
      b = u;
      break;
    }
  }
  ASSERT_LT(b, layout.num_attributes());
  StateBitmap child = full.WithFlipped(a).WithFlipped(b);
  MaterializationPtr inc = f.universe.MaterializeFrom(*parent, child);
  MaterializationPtr fresh = f.universe.MaterializeRecord(child);
  EXPECT_EQ(inc->row_ids(), fresh->row_ids());
  EXPECT_EQ(inc->mask, fresh->mask);
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
  const UnitLayout& layout = f.universe.layout();
  std::vector<StateBitmap> states = {f.universe.FullBitmap(),
                                     f.universe.BackwardBitmap()};
  const size_t num_seeds = states.size();
  for (size_t s = 0; s < num_seeds; ++s) {
    for (size_t u = 0; u < layout.num_units(); ++u) {
      if (layout.IsAttributeUnit(u) && !layout.attr_flippable[u]) continue;
      states.push_back(states[s].WithFlipped(u));
    }
  }
  size_t nontrivial = 0;
  for (const StateBitmap& state : states) {
    const size_t scan = f.universe.CountRowsScan(state);
    EXPECT_EQ(f.universe.CountRows(state), scan);
    EXPECT_EQ(f.universe.SurvivingMask(state).Count(), scan);
    EXPECT_EQ(f.universe.SurvivingMask(state).ToRowIds(),
              f.universe.MaterializeRecord(state)->row_ids());
    if (scan < f.bench.universal.num_rows()) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 0u) << "no state filtered any row; battery vacuous";
}

TEST(RowMaskPathTest, StateFeaturesFromCachedMaskMatchRecompute) {
  auto f = Fixture::Make();
  const StateBitmap full = f.universe.FullBitmap();
  const size_t unit = f.universe.layout().num_attributes();
  const StateBitmap child = full.WithFlipped(unit);
  const MaterializationPtr m = f.universe.MaterializeRecord(child);
  EXPECT_EQ(f.universe.StateFeatures(child),
            f.universe.StateFeatures(child, m->mask));
}

TEST(RowMaskPathTest, MaskDerivationExactOnNonMultipleOf64Universe) {
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
  const MaterializationPtr parent = uni->MaterializeRecord(full);
  for (size_t u = 0; u < layout.num_units(); ++u) {
    if (layout.IsAttributeUnit(u) && !layout.attr_flippable[u]) continue;
    const StateBitmap child = full.WithFlipped(u);
    ExpectIncrementalMatchesFresh(*uni, *parent, child,
                                  "70-row reduct unit " + std::to_string(u));
    // And the relax edge back up from the reduced child.
    const MaterializationPtr reduced = uni->MaterializeRecord(child);
    ExpectIncrementalMatchesFresh(*uni, *reduced, full,
                                  "70-row augment unit " + std::to_string(u));
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

// ------------------------------------------------------- Materialization LRU

MaterializationPtr DummyMaterialization(const std::string& tag) {
  auto m = std::make_shared<Materialization>();
  m->state = StateBitmap(tag.size(), true);
  return m;
}

TEST(MaterializationCacheTest, PutGetRoundtrip) {
  MaterializationCache cache(4);
  EXPECT_EQ(cache.Get("a"), nullptr);
  MaterializationPtr m = DummyMaterialization("a");
  cache.Put("a", m);
  EXPECT_EQ(cache.Get("a"), m);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MaterializationCacheTest, EvictsLeastRecentlyUsed) {
  MaterializationCache cache(2);
  cache.Put("a", DummyMaterialization("a"));
  cache.Put("b", DummyMaterialization("b"));
  ASSERT_NE(cache.Get("a"), nullptr);  // Refreshes "a"; "b" is now LRU.
  cache.Put("c", DummyMaterialization("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(MaterializationCacheTest, ZeroCapacityDisablesCaching) {
  MaterializationCache cache(0);
  cache.Put("a", DummyMaterialization("a"));
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MaterializationCacheTest, PutRefreshesExistingKey) {
  MaterializationCache cache(2);
  cache.Put("a", DummyMaterialization("a"));
  cache.Put("b", DummyMaterialization("b"));
  MaterializationPtr fresh = DummyMaterialization("a2");
  cache.Put("a", fresh);  // Refresh: "b" becomes LRU.
  cache.Put("c", DummyMaterialization("c"));
  EXPECT_EQ(cache.Get("a"), fresh);
  EXPECT_EQ(cache.Get("b"), nullptr);
}

}  // namespace
}  // namespace modis
