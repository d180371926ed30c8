#include "core/algorithms.h"

#include <deque>
#include <unordered_set>
#include <utility>

#include "common/timer.h"
#include "moo/pareto.h"

namespace modis {

Status ApplyVariantFlags(const std::string& variant, ModisConfig* config) {
  if (variant == "apx") {
    config->bidirectional = false;
    config->correlation_pruning = false;
    config->diversify = false;
  } else if (variant == "nobi") {
    config->bidirectional = true;
    config->correlation_pruning = false;
    config->diversify = false;
  } else if (variant == "bi") {
    config->bidirectional = true;
    config->correlation_pruning = true;
    config->diversify = false;
  } else if (variant == "div") {
    config->bidirectional = true;
    config->correlation_pruning = false;
    config->diversify = true;
  } else {
    return Status::InvalidArgument("unknown variant '" + variant +
                                   "' (apx | nobi | bi | div)");
  }
  return Status::OK();
}

namespace {

Result<ModisResult> RunVariant(const char* variant,
                               const SearchUniverse& universe,
                               PerformanceOracle* oracle,
                               ModisConfig config) {
  MODIS_RETURN_IF_ERROR(ApplyVariantFlags(variant, &config));
  return ModisEngine(&universe, oracle, config).Run();
}

}  // namespace

Result<ModisResult> RunApxModis(const SearchUniverse& universe,
                                PerformanceOracle* oracle,
                                ModisConfig config) {
  return RunVariant("apx", universe, oracle, std::move(config));
}

Result<ModisResult> RunBiModis(const SearchUniverse& universe,
                               PerformanceOracle* oracle, ModisConfig config) {
  return RunVariant("bi", universe, oracle, std::move(config));
}

Result<ModisResult> RunNoBiModis(const SearchUniverse& universe,
                                 PerformanceOracle* oracle,
                                 ModisConfig config) {
  return RunVariant("nobi", universe, oracle, std::move(config));
}

Result<ModisResult> RunDivModis(const SearchUniverse& universe,
                                PerformanceOracle* oracle,
                                ModisConfig config) {
  return RunVariant("div", universe, oracle, std::move(config));
}

Result<ModisResult> RunExactSkyline(const SearchUniverse& universe,
                                    PerformanceOracle* oracle,
                                    ModisConfig config) {
  WallTimer timer;
  ModisResult result;

  std::deque<std::pair<StateBitmap, int>> queue;
  std::unordered_set<std::string> visited;
  std::vector<SkylineEntry> valuated;

  const UnitLayout& layout = universe.layout();
  queue.emplace_back(universe.FullBitmap(), 0);
  visited.insert(universe.FullBitmap().Signature());

  while (!queue.empty() && result.valuated_states < config.max_states) {
    auto [state, level] = queue.front();
    queue.pop_front();
    ++result.generated_states;

    ValuationRequest request;
    request.key = state.Signature();
    request.features = universe.StateFeatures(state);
    request.universe = &universe;
    request.materialize = [&universe, &state]() {
      return universe.MaterializeRecord(state);
    };
    Result<Evaluation> eval = oracle->Valuate(request);
    ++result.valuated_states;
    bool expandable = level < config.max_level;
    if (eval.ok()) {
      SkylineEntry entry;
      entry.state = state;
      entry.eval = eval.value();
      entry.level = level;
      entry.rows = universe.CountRows(state);
      for (size_t a = 0; a < layout.num_attributes(); ++a) {
        if (state.Get(a)) ++entry.cols;
      }
      // Enforce the user-defined tolerances p_u, as in UPareto: states out
      // of bounds stay expandable but never enter the skyline.
      const auto upper = UpperBounds(oracle->measures());
      bool in_bounds = true;
      for (size_t j = 0; j < upper.size(); ++j) {
        if (entry.eval.normalized[j] > upper[j] + 1e-12) in_bounds = false;
      }
      if (in_bounds) valuated.push_back(std::move(entry));
    } else {
      expandable = false;  // Reduction only shrinks further.
    }

    if (!expandable) continue;
    for (size_t u = 0; u < layout.num_units(); ++u) {
      if (!state.Get(u)) continue;
      if (layout.IsAttributeUnit(u)) {
        if (!layout.attr_flippable[u]) continue;
      } else if (!state.Get(layout.cluster(u).attr_index)) {
        continue;
      }
      StateBitmap child = state.WithFlipped(u);
      if (visited.insert(child.Signature()).second) {
        queue.emplace_back(std::move(child), level + 1);
      }
    }
  }

  std::vector<PerfVector> perfs;
  perfs.reserve(valuated.size());
  for (const auto& e : valuated) perfs.push_back(e.eval.normalized);
  for (size_t idx : ParetoFrontKung(perfs)) {
    result.skyline.push_back(valuated[idx]);
  }
  result.seconds = timer.Seconds();
  result.oracle_stats = oracle->stats();
  return result;
}

}  // namespace modis
