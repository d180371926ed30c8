/// Cross-cutting property sweeps: every (task, algorithm, ε) combination
/// must uphold the engine's invariants. Uses a wall-clock-free measure set
/// so runs are bit-deterministic and comparable across budgets.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "ml/random_forest.h"
#include "moo/pareto.h"

namespace modis {
namespace {

/// A deterministic task: house lake, RF classifier, measures {f1, acc}
/// (no training time — wall-clock jitter would break run-to-run equality).
struct DeterministicFixture {
  TabularBench bench;
  SearchUniverse universe;

  static DeterministicFixture Make(uint64_t seed_offset = 0) {
    auto bench = MakeTabularBench(BenchTaskId::kHouse, 0.4, 0, seed_offset);
    EXPECT_TRUE(bench.ok());
    bench->task.measures = {MeasureSpec::Maximize("f1"),
                            MeasureSpec::Maximize("acc")};
    auto uni =
        SearchUniverse::Build(bench->universal, bench->universe_options);
    EXPECT_TRUE(uni.ok());
    return {std::move(bench).value(), std::move(uni).value()};
  }
};

using AlgoFn = Result<ModisResult> (*)(const SearchUniverse&,
                                       PerformanceOracle*, ModisConfig);

struct AlgoCase {
  const char* name;
  AlgoFn fn;
};

class AlgorithmPropertyTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(AlgorithmPropertyTest, InvariantsHold) {
  DeterministicFixture f = DeterministicFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 90;
  cfg.max_level = 3;
  auto result = GetParam().fn(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok()) << GetParam().name;
  ASSERT_FALSE(result->skyline.empty()) << GetParam().name;
  EXPECT_LE(result->valuated_states, cfg.max_states);

  const auto upper = UpperBounds(oracle.measures());
  for (const auto& e : result->skyline) {
    // (1) Mutually non-dominated.
    for (const auto& other : result->skyline) {
      if (&e != &other) {
        EXPECT_FALSE(Dominates(other.eval.normalized, e.eval.normalized));
      }
    }
    // (2) Within the user-defined tolerances.
    for (size_t j = 0; j < upper.size(); ++j) {
      EXPECT_LE(e.eval.normalized[j], upper[j] + 1e-9);
    }
    // (3) Bookkeeping consistent with materialization.
    Table dataset = f.universe.Materialize(e.state);
    EXPECT_EQ(dataset.num_rows(), e.rows);
    EXPECT_EQ(dataset.num_cols(), e.cols);
    // (4) Level never exceeds maxl.
    EXPECT_LE(e.level, cfg.max_level);
  }
}

TEST_P(AlgorithmPropertyTest, DeterministicAcrossRuns) {
  DeterministicFixture f = DeterministicFixture::Make();
  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 70;
  cfg.max_level = 3;

  auto run = [&]() {
    auto evaluator = f.bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    auto result = GetParam().fn(f.universe, &oracle, cfg);
    EXPECT_TRUE(result.ok());
    std::vector<std::string> sigs;
    for (const auto& e : result->skyline) {
      sigs.push_back(e.state.Signature());
    }
    std::sort(sigs.begin(), sigs.end());
    return sigs;
  };
  EXPECT_EQ(run(), run()) << GetParam().name;
}

TEST_P(AlgorithmPropertyTest, BudgetMonotonicityOfBestMeasure) {
  DeterministicFixture f = DeterministicFixture::Make();
  auto best_f1 = [&](size_t budget) {
    auto evaluator = f.bench.MakeEvaluator();
    PerformanceOracle oracle(evaluator.get());
    ModisConfig cfg;
    cfg.epsilon = 0.2;
    cfg.max_states = budget;
    cfg.max_level = 3;
    auto result = GetParam().fn(f.universe, &oracle, cfg);
    EXPECT_TRUE(result.ok());
    double best = 1.0;  // Normalized-minimized: smaller is better.
    for (const auto& e : result->skyline) {
      best = std::min(best, e.eval.normalized[0]);
    }
    return best;
  };
  // More budget explores a superset of states (same deterministic order),
  // so the best f1 must not regress. DivMODis trades optimality for
  // diversity, so it is exempt (the paper observes the same, Exp-2).
  if (std::string(GetParam().name) == "DivMODis") return;
  EXPECT_LE(best_f1(120), best_f1(50) + 1e-9) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AlgorithmPropertyTest,
    ::testing::Values(AlgoCase{"ApxMODis", &RunApxModis},
                      AlgoCase{"NOBiMODis", &RunNoBiModis},
                      AlgoCase{"BiMODis", &RunBiModis},
                      AlgoCase{"DivMODis", &RunDivModis}),
    [](const ::testing::TestParamInfo<AlgoCase>& info) {
      return info.param.name;
    });

class EpsilonPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonPropertyTest, SkylineCoversValuatedInBoundsStates) {
  // The Lemma-2 ε-cover, on the deterministic measure set (no wall-clock
  // noise, so the exact guarantee is assertable with the exact epsilon).
  DeterministicFixture f = DeterministicFixture::Make();
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg;
  cfg.epsilon = GetParam();
  cfg.max_states = 80;
  cfg.max_level = 3;
  auto result = RunApxModis(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());

  std::vector<PerfVector> kept;
  for (const auto& e : result->skyline) kept.push_back(e.eval.normalized);
  const auto upper = UpperBounds(oracle.measures());
  for (const auto& record : oracle.store().records()) {
    bool in_bounds = true;
    for (size_t j = 0; j < upper.size(); ++j) {
      if (record.eval.normalized[j] > upper[j] + 1e-12) in_bounds = false;
    }
    if (!in_bounds) continue;
    bool covered = false;
    for (const auto& k : kept) {
      if (EpsilonDominates(k, record.eval.normalized, cfg.epsilon + 1e-9)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "eps=" << GetParam() << " state " << record.key;
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonPropertyTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.4));

class SeedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedPropertyTest, PipelineRobustAcrossLakes) {
  // Different generator seeds produce different lakes; the pipeline must
  // stay healthy (non-empty in-bounds skyline) on each.
  DeterministicFixture f = DeterministicFixture::Make(GetParam());
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 60;
  cfg.max_level = 2;
  auto result = RunNoBiModis(f.universe, &oracle, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->skyline.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedPropertyTest,
                         ::testing::Values(1000, 2000, 3000, 4000, 5000));

/// ---- Persistent-cache identity ----
///
/// The cache contract: the skyline is identical with the cache off,
/// cold, or warm, and the file on disk is a v1 record log.

std::string PropCachePath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  return path;
}

std::string FileMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {0};
  in.read(magic, sizeof(magic));
  return std::string(magic, static_cast<size_t>(std::max<std::streamsize>(
                                0, in.gcount())));
}

/// Byte-identity, not tolerance: a served record replays exactly what the
/// training that produced it returned, so every double must match with ==.
void ExpectByteIdenticalSkyline(ModisResult a, ModisResult b) {
  EXPECT_EQ(a.valuated_states, b.valuated_states);
  EXPECT_EQ(a.generated_states, b.generated_states);
  EXPECT_EQ(a.pruned_states, b.pruned_states);
  ASSERT_EQ(a.skyline.size(), b.skyline.size());
  ASSERT_FALSE(a.skyline.empty());
  auto by_signature = [](const SkylineEntry& x, const SkylineEntry& y) {
    return x.state.Signature() < y.state.Signature();
  };
  std::sort(a.skyline.begin(), a.skyline.end(), by_signature);
  std::sort(b.skyline.begin(), b.skyline.end(), by_signature);
  for (size_t i = 0; i < a.skyline.size(); ++i) {
    const SkylineEntry& x = a.skyline[i];
    const SkylineEntry& y = b.skyline[i];
    EXPECT_EQ(x.state.Signature(), y.state.Signature());
    EXPECT_EQ(x.level, y.level);
    ASSERT_EQ(x.eval.normalized.size(), y.eval.normalized.size());
    for (size_t j = 0; j < x.eval.normalized.size(); ++j) {
      EXPECT_EQ(x.eval.normalized[j], y.eval.normalized[j]);
      EXPECT_EQ(x.eval.raw[j], y.eval.raw[j]);
    }
  }
}

ModisResult RunCached(DeterministicFixture& f, const std::string& cache_path) {
  auto evaluator = f.bench.MakeEvaluator();
  PerformanceOracle oracle(evaluator.get());
  ModisConfig cfg;
  cfg.epsilon = 0.2;
  cfg.max_states = 70;
  cfg.max_level = 3;
  cfg.record_cache_path = cache_path;
  auto result = RunBiModis(f.universe, &oracle, cfg);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(CachePropertyTest, OffColdWarmSkylinesAreByteIdentical) {
  DeterministicFixture f = DeterministicFixture::Make();
  const std::string path = PropCachePath("prop_cache.rlog");

  ModisResult off = RunCached(f, "");
  ModisResult cold = RunCached(f, path);
  ModisResult warm = RunCached(f, path);

  EXPECT_FALSE(off.record_cache_active);
  ASSERT_TRUE(cold.record_cache_active);
  ASSERT_TRUE(warm.record_cache_active);
  EXPECT_EQ(FileMagic(path), "MODISRLG");

  // Cold: cache engaged but empty — trains exactly what the off run does.
  EXPECT_EQ(cold.oracle_stats.persistent_hits, 0u);
  EXPECT_GT(cold.record_cache_stats.appended, 0u);
  EXPECT_EQ(cold.oracle_stats.exact_evals, off.oracle_stats.exact_evals);

  // Warm: every valuation replays from the log — zero trainings.
  EXPECT_EQ(warm.oracle_stats.exact_evals, 0u);
  EXPECT_EQ(warm.oracle_stats.persistent_hits, cold.oracle_stats.exact_evals);

  ExpectByteIdenticalSkyline(off, std::move(cold));
  ExpectByteIdenticalSkyline(std::move(off), std::move(warm));
}

}  // namespace
}  // namespace modis
