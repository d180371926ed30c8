#include "baselines/nsga2_modis.h"

#include "common/timer.h"

namespace modis {

Result<Nsga2ModisResult> RunNsga2Modis(const SearchUniverse& universe,
                                       PerformanceOracle* oracle,
                                       const Nsga2Options& options) {
  WallTimer timer;
  const UnitLayout& layout = universe.layout();
  const std::vector<double> upper = UpperBounds(oracle->measures());

  auto repair = [&layout](std::vector<uint8_t> genome) {
    // Protected attributes stay included; cluster bits of excluded
    // attributes are forced on so identical datasets share one genome.
    for (size_t a = 0; a < layout.num_attributes(); ++a) {
      if (!layout.attr_flippable[a]) genome[a] = 1;
    }
    for (size_t cu = 0; cu < layout.clusters.size(); ++cu) {
      const size_t attr = layout.clusters[cu].attr_index;
      if (!genome[attr]) genome[layout.num_attributes() + cu] = 1;
    }
    return genome;
  };

  Nsga2Fitness fitness =
      [&](const std::vector<uint8_t>& raw) -> std::optional<PerfVector> {
    const std::vector<uint8_t> genome = repair(raw);
    StateBitmap state(genome.size());
    for (size_t i = 0; i < genome.size(); ++i) state.Set(i, genome[i] != 0);
    ValuationRequest request;
    request.key = state.Signature();
    request.features = universe.StateFeatures(state);
    request.universe = &universe;
    request.materialize = [&]() { return universe.MaterializeRecord(state); };
    Result<Evaluation> eval = oracle->Valuate(request);
    if (!eval.ok()) return std::nullopt;  // Untrainable genome.
    for (size_t j = 0; j < upper.size(); ++j) {
      if (eval->normalized[j] > upper[j] + 1e-12) return std::nullopt;
    }
    return eval->normalized;
  };

  // Seed with the universal state (matching MODis's start).
  std::vector<uint8_t> seed(layout.num_units(), 1);
  Nsga2Result run = RunNsga2(seed, fitness, options);

  Nsga2ModisResult result;
  result.evaluations = run.evaluations;
  for (const auto& ind : run.front) {
    const std::vector<uint8_t> genome = repair(ind.genome);
    SkylineEntry entry;
    entry.state = StateBitmap(genome.size());
    for (size_t i = 0; i < genome.size(); ++i) {
      entry.state.Set(i, genome[i] != 0);
    }
    entry.eval.normalized = ind.objectives;
    entry.eval.raw = ind.objectives;  // Raw values live in the oracle store.
    entry.rows = universe.CountRows(entry.state);
    for (size_t a = 0; a < layout.num_attributes(); ++a) {
      if (entry.state.Get(a)) ++entry.cols;
    }
    result.skyline.push_back(std::move(entry));
  }
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace modis
