#include "core/engine.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/timer.h"
#include "moo/correlation.h"
#include "moo/diversity.h"
#include "moo/pareto.h"
#include "table/schema.h"

namespace modis {

namespace {
constexpr size_t kMissing = static_cast<size_t>(-1);
}  // namespace

uint64_t ModisEngine::TaskFingerprint(
    const SearchUniverse& universe, const std::vector<MeasureSpec>& measures,
    const std::string& cache_namespace, const std::string& model_identity) {
  FingerprintBuilder fp;
  fp.Add(cache_namespace);
  // The task model: two tasks that differ only in the trained prototype
  // (same D_U, same measures) must never share records. The identity
  // string flows from TaskEvaluator::ModelIdentity through the oracle.
  fp.Add(model_identity);

  // The dataset: schema, size, and cell content of D_U. Content is
  // hashed so a lake whose values changed under an unchanged shape
  // (edited CSVs, a new generator seed) can never replay stale
  // evaluations. One O(|D_U|) pass per engine, amortized against the
  // model trainings it makes skippable.
  const Table& universal = universe.universal();
  fp.Add(uint64_t{universal.num_rows()});
  fp.Add(uint64_t{universal.num_cols()});
  for (size_t c = 0; c < universal.num_cols(); ++c) {
    const Field& field = universal.schema().field(c);
    fp.Add(field.name);
    fp.Add(uint64_t(field.type));
    for (size_t r = 0; r < universal.num_rows(); ++r) {
      const Value& cell = universal.At(r, c);
      fp.Add(uint64_t(cell.kind()));
      switch (cell.kind()) {
        case ValueKind::kNull:
          break;
        case ValueKind::kInt:
          fp.Add(uint64_t(cell.AsInt()));
          break;
        case ValueKind::kDouble:
          fp.Add(cell.AsDoubleExact());
          break;
        case ValueKind::kString:
          fp.Add(cell.AsString());
          break;
      }
    }
  }

  // The unit layout: state signatures are positional, so any change to
  // the unit list (count, order, cluster boundaries, protections) must
  // invalidate the records.
  const UnitLayout& layout = universe.layout();
  fp.Add(uint64_t{layout.num_units()});
  for (size_t a = 0; a < layout.num_attributes(); ++a) {
    fp.Add(layout.attributes[a]);
    fp.Add(uint64_t(layout.attr_flippable[a] ? 1 : 0));
  }
  for (const UnitLayout::ClusterUnit& cu : layout.clusters) {
    fp.Add(uint64_t{cu.attr_index});
    fp.Add(cu.literal.ToString());
  }

  // The measure set: evaluations are vectors in measure order, and the
  // normalization parameters shape every recorded value.
  fp.Add(uint64_t{measures.size()});
  for (const MeasureSpec& m : measures) {
    fp.Add(m.name);
    fp.Add(uint64_t(m.direction));
    fp.Add(m.scale);
    fp.Add(m.lower);
    fp.Add(m.upper);
  }
  return fp.Digest();
}

ModisEngine::ModisEngine(const SearchUniverse* universe,
                         PerformanceOracle* oracle, ModisConfig config,
                         ValuationContext context)
    : universe_(universe),
      oracle_(oracle),
      config_(config),
      rng_(config.seed),
      ctx_(context) {
  MODIS_CHECK(universe_ != nullptr) << "ModisEngine: null universe";
  MODIS_CHECK(oracle_ != nullptr) << "ModisEngine: null oracle";
  if (ctx_.pool == nullptr) {
    const size_t threads = config_.num_threads == 0
                               ? std::thread::hardware_concurrency()
                               : config_.num_threads;
    if (threads > 1) {
      pool_ = std::make_unique<ThreadPool>(threads);
      ctx_.pool = pool_.get();
    }
  }
  const size_t m = oracle_->measures().size();
  MODIS_CHECK(m >= 1) << "ModisEngine: empty measure set";
  decisive_ = config_.decisive_measure == SIZE_MAX ? m - 1
                                                   : config_.decisive_measure;
  MODIS_CHECK(decisive_ < m) << "decisive measure index out of range";
  lower_bounds_ = LowerBounds(oracle_->measures());
  upper_bounds_ = UpperBounds(oracle_->measures());
  size_correlation_.assign(m, 0.0);

  // kOff wins even over a lent cache: no persistent records in any form.
  // A lent cache opened read-write becomes a no-append view under kRead.
  if (config_.cache_mode == CacheMode::kOff) ctx_.record_cache = nullptr;
  ctx_.write_through = config_.cache_mode == CacheMode::kReadWrite;
  const bool open_cache = ctx_.record_cache == nullptr &&
                          config_.cache_mode != CacheMode::kOff &&
                          !config_.record_cache_path.empty();
  // Fusion never changes what a training returns (trainings are
  // deterministic per fingerprint), so a fuser is scoped under every
  // cache mode, kOff included.
  ctx_.fingerprint =
      ctx_.fuser != nullptr || ctx_.record_cache != nullptr || open_cache
          ? TaskFingerprint(*universe_, oracle_->measures(),
                            config_.record_cache_namespace,
                            oracle_->ModelIdentity())
          : 0;
  if (open_cache) {
    PersistentRecordCache::Options cache_options;
    cache_options.max_bytes = config_.record_cache_max_bytes;
    auto opened =
        PersistentRecordCache::Open(config_.record_cache_path,
                                    config_.cache_mode, ctx_.fingerprint,
                                    cache_options);
    if (opened.ok()) {
      record_cache_ = std::move(opened).value();
      ctx_.record_cache = record_cache_.get();
    } else {
      // A broken cache must never break the search: run cold. (kRead on a
      // missing file, or a log locked by a live host, lands here too.)
      MODIS_LOG(WARN, "engine")
          << "record cache disabled: " << opened.status().ToString();
    }
  }
}

ModisEngine::~ModisEngine() {
  if (ctx_.record_cache != nullptr) {
    const Status flushed = ctx_.record_cache->Flush();
    (void)flushed;
  }
}

std::vector<StateBitmap> ModisEngine::OpGen(const StateBitmap& state,
                                            bool forward) const {
  const UnitLayout& layout = universe_->layout();
  std::vector<StateBitmap> children;
  for (size_t u = 0; u < layout.num_units(); ++u) {
    const bool bit = state.Get(u);
    if (forward && !bit) continue;   // Reduct flips 1 -> 0.
    if (!forward && bit) continue;   // Augment flips 0 -> 1.
    if (layout.IsAttributeUnit(u)) {
      if (!layout.attr_flippable[u]) continue;
    } else {
      // Cluster flips are only meaningful while the attribute is included;
      // flipping them otherwise spawns states with identical datasets.
      const size_t attr = layout.cluster(u).attr_index;
      if (!state.Get(attr)) continue;
    }
    children.push_back(state.WithFlipped(u));
  }
  return children;
}

void ModisEngine::RefreshCorrelation() {
  if (!config_.correlation_pruning) return;  // Only CanPrune reads it.
  const auto& records = oracle_->store().records();
  if (records.size() < 3) return;
  std::vector<double> row_fraction;
  row_fraction.reserve(records.size());
  for (const auto& r : records) {
    // StateFeatures appends [row_fraction, col_fraction] after the bitmap.
    MODIS_CHECK(r.features.size() >= 2) << "state features missing fractions";
    row_fraction.push_back(r.features[r.features.size() - 2]);
  }
  std::vector<double> column(records.size());
  for (size_t j = 0; j < size_correlation_.size(); ++j) {
    for (size_t i = 0; i < records.size(); ++i) {
      column[i] = records[i].eval.normalized[j];
    }
    size_correlation_[j] = SpearmanCorrelation(column, row_fraction);
  }
}

std::vector<std::pair<double, double>> ModisEngine::ParameterizedRange(
    const StateBitmap& state) {
  const auto& records = oracle_->store().records();
  if (records.size() < config_.min_records_for_pruning) return {};
  const double z = universe_->RowFraction(state);

  // Bracket the state's size between the nearest valuated tests below and
  // above; their measures bound the un-valuated state's measures for every
  // measure strongly correlated with |D| (Example 6 of the paper).
  const TestRecordStore::Record* below = nullptr;
  const TestRecordStore::Record* above = nullptr;
  double below_z = -1.0, above_z = 2.0;
  for (const auto& r : records) {
    const double rz = r.features[r.features.size() - 2];
    if (rz <= z && rz > below_z) {
      below_z = rz;
      below = &r;
    }
    if (rz >= z && rz < above_z) {
      above_z = rz;
      above = &r;
    }
  }
  if (below == nullptr || above == nullptr) return {};

  const size_t m = oracle_->measures().size();
  std::vector<std::pair<double, double>> range(m);
  for (size_t j = 0; j < m; ++j) {
    if (std::abs(size_correlation_[j]) < config_.theta) return {};
    const double a = below->eval.normalized[j];
    const double b = above->eval.normalized[j];
    range[j] = {std::min(a, b), std::max(a, b)};
  }
  return range;
}

bool ModisEngine::CanPrune(const StateBitmap& state) {
  if (!config_.correlation_pruning) return false;
  const auto range = ParameterizedRange(state);
  if (range.empty()) return false;
  // Optimistic vector: the lower end p̂l of every measure. If some skyline
  // member ε-dominates even this best case, the state (and its one-flip
  // descendants, which are never spawned from a pruned state) cannot enter
  // the ε-skyline — Lemma 4's safe-pruning condition.
  PerfVector optimistic(range.size());
  for (size_t j = 0; j < range.size(); ++j) optimistic[j] = range[j].first;
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (!entry_alive_[e]) continue;
    if (EpsilonDominates(entries_[e].eval.normalized, optimistic,
                         config_.epsilon)) {
      return true;
    }
  }
  return false;
}

void ModisEngine::UPareto(const StateBitmap& state, const Evaluation& eval,
                          int level) {
  // Early skip when any measure exceeds its tolerance p_u.
  for (size_t j = 0; j < eval.normalized.size(); ++j) {
    if (eval.normalized[j] > upper_bounds_[j] + 1e-12) return;
  }
  // Grid over all but the decisive measure. We permute the decisive
  // measure to the last slot to reuse GridPosition's convention.
  PerfVector perm = eval.normalized;
  std::vector<double> lb = lower_bounds_;
  if (decisive_ + 1 != perm.size()) {
    std::swap(perm[decisive_], perm.back());
    std::swap(lb[decisive_], lb.back());
  }
  const std::vector<int64_t> pos =
      GridPosition(perm, lb, config_.epsilon);

  SkylineEntry entry;
  entry.state = state;
  entry.eval = eval;
  entry.level = level;
  entry.rows = universe_->CountRows(state);
  entry.cols = 0;
  for (size_t a = 0; a < universe_->layout().num_attributes(); ++a) {
    if (state.Get(a)) ++entry.cols;
  }

  auto it = grid_.find(pos);
  if (it == grid_.end() || it->second == kMissing ||
      !entry_alive_[it->second]) {
    grid_[pos] = entries_.size();
    entries_.push_back(std::move(entry));
    entry_alive_.push_back(true);
    return;
  }
  SkylineEntry& incumbent = entries_[it->second];
  if (eval.normalized[decisive_] <
      incumbent.eval.normalized[decisive_]) {
    entry_alive_[it->second] = false;
    grid_[pos] = entries_.size();
    entries_.push_back(std::move(entry));
    entry_alive_.push_back(true);
  }
}

void ModisEngine::CollectState(const StateBitmap& state, int level,
                               Frontier* frontier,
                               std::vector<BatchItem>* batch) {
  std::string sig = state.Signature();
  auto& visited =
      frontier->forward ? visited_forward_ : visited_backward_;
  auto& other = frontier->forward ? visited_backward_ : visited_forward_;
  if (!visited.insert(sig).second) return;  // Already explored.
  if (other.count(sig) > 0) frontiers_met_ = true;

  ++stats_.generated_states;
  if (CanPrune(state)) {
    ++stats_.pruned_states;
    return;  // Not valuated, not enqueued: the path is cut here.
  }
  batch->push_back({state, std::move(sig), level});
}

void ModisEngine::ValuateBatch(std::vector<BatchItem> items,
                               Frontier* frontier, SpanId trace_scope) {
  if (items.empty()) return;

  // The oracle parents its plan/train/commit/flush spans under this batch.
  ValuationContext ctx = ctx_;
  TraceRecorder* const trace = ctx.trace;
  const SpanId batch_span =
      trace != nullptr ? trace->Begin("batch", trace_scope) : kNoSpan;
  ctx.trace_parent = batch_span;
  PerformanceOracle::Stats before;
  if (trace != nullptr) {
    trace->AddAttr(batch_span, "batch_size",
                   static_cast<int64_t>(items.size()));
    before = oracle_->stats();
  }

  std::vector<ValuationRequest> requests;
  requests.reserve(items.size());
  for (const BatchItem& item : items) {
    ValuationRequest req;
    req.key = item.signature;
    req.features = universe_->StateFeatures(item.state);
    req.universe = universe_;
    // Materialization runs lazily on a worker thread for exact items.
    req.materialize = [universe = universe_, state = item.state]() {
      return universe->MaterializeRecord(state);
    };
    requests.push_back(std::move(req));
  }

  std::vector<Result<Evaluation>> results =
      oracle_->ValuateBatch(oracle_->PrepareBatch(std::move(requests), ctx));
  MODIS_CHECK(results.size() == items.size()) << "batch result misalignment";

  if (trace != nullptr) {
    const PerformanceOracle::Stats after = oracle_->stats();
    trace->AddAttr(batch_span, "exact",
                   static_cast<int64_t>(after.exact_evals -
                                        before.exact_evals));
    trace->AddAttr(batch_span, "surrogate",
                   static_cast<int64_t>(after.surrogate_evals -
                                        before.surrogate_evals));
    trace->AddAttr(batch_span, "cached",
                   static_cast<int64_t>(after.cache_hits - before.cache_hits));
    trace->AddAttr(batch_span, "persistent",
                   static_cast<int64_t>(after.persistent_hits -
                                        before.persistent_hits));
    trace->AddAttr(batch_span, "fused",
                   static_cast<int64_t>(after.fused_hits -
                                        before.fused_hits));
  }

  // Commit in collection order, so the skyline grid and the next level's
  // queue are independent of how the batch was scheduled.
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    ++stats_.valuated_states;
    const Result<Evaluation>& eval = results[i];
    if (!eval.ok()) {
      // Untrainable dataset (too small / single class): children can only
      // be more reduced on the forward side, so the path is dropped;
      // backward augmentation may still recover, so keep expanding there
      // (at the lowest priority).
      if (!frontier->forward && item.level < config_.max_level) {
        frontier->queue.push_back({item.state, item.level, 2.0});
      }
      continue;
    }
    UPareto(item.state, eval.value(), item.level);
    if (item.level < config_.max_level) {
      // Priority: the worst bound-violation ratio max_j p_j / p_u_j —
      // states closest to (or inside) the user-defined ranges are extended
      // first.
      double priority = 0.0;
      for (size_t j = 0; j < eval.value().normalized.size(); ++j) {
        priority = std::max(priority,
                            eval.value().normalized[j] / upper_bounds_[j]);
      }
      frontier->queue.push_back({item.state, item.level, priority});
    }
  }

  if (trace != nullptr) trace->End(batch_span);
}

void ModisEngine::ExpandLevel(Frontier* frontier, int level) {
  SpanId level_span = kNoSpan;
  TraceRecorder* const trace = ctx_.trace;
  if (trace != nullptr) {
    level_span = trace->Begin("level", ctx_.trace_parent);
    trace->AddAttr(level_span, "level", level);
    trace->AddAttr(level_span, "forward", frontier->forward ? 1 : 0);
  }

  // Pull the entries parked at `level`, most promising first: when the
  // budget runs out mid-level, the best paths have been extended (§5.2's
  // prioritized valuation).
  std::vector<Frontier::Entry> current;
  const size_t pending = frontier->queue.size();
  for (size_t i = 0; i < pending; ++i) {
    Frontier::Entry entry = std::move(frontier->queue.front());
    frontier->queue.pop_front();
    if (entry.level != level) {
      frontier->queue.push_back(std::move(entry));
    } else {
      current.push_back(std::move(entry));
    }
  }
  std::stable_sort(current.begin(), current.end(),
                   [](const Frontier::Entry& a, const Frontier::Entry& b) {
                     return a.priority < b.priority;
                   });

  // Collect the whole level's children, then issue one batch.
  std::vector<BatchItem> batch;
  for (const Frontier::Entry& entry : current) {
    if (stats_.valuated_states + batch.size() >= config_.max_states) break;
    for (const StateBitmap& child : OpGen(entry.state, frontier->forward)) {
      if (stats_.valuated_states + batch.size() >= config_.max_states) break;
      CollectState(child, level + 1, frontier, &batch);
    }
  }
  ValuateBatch(std::move(batch), frontier, level_span);
  if (trace != nullptr) trace->End(level_span);
}

void ModisEngine::DiversifyLevel() {
  std::vector<size_t> alive;
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (entry_alive_[e]) alive.push_back(e);
  }
  if (alive.size() <= config_.diversify_k) return;

  std::vector<DiversityItem> items;
  items.reserve(alive.size());
  for (size_t e : alive) {
    items.push_back(
        {entries_[e].state.Features(), entries_[e].eval.normalized});
  }
  const double euc_max =
      MaxEuclideanDistance(oracle_->store().NormalizedVectors());
  const std::vector<size_t> kept = DiversifyGreedy(
      items, config_.diversify_k, config_.alpha, euc_max, &rng_);
  std::vector<bool> keep_flag(alive.size(), false);
  for (size_t i : kept) keep_flag[i] = true;
  for (size_t i = 0; i < alive.size(); ++i) {
    if (!keep_flag[i]) entry_alive_[alive[i]] = false;
  }
  RebuildGrid();
}

void ModisEngine::RebuildGrid() {
  grid_.clear();
  const size_t m = oracle_->measures().size();
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (!entry_alive_[e]) continue;
    PerfVector perm = entries_[e].eval.normalized;
    std::vector<double> lb = lower_bounds_;
    if (decisive_ + 1 != m) {
      std::swap(perm[decisive_], perm.back());
      std::swap(lb[decisive_], lb.back());
    }
    grid_[GridPosition(perm, lb, config_.epsilon)] = e;
  }
}

Result<ModisResult> ModisEngine::Run() {
  WallTimer timer;
  Frontier forward;
  forward.forward = true;
  Frontier backward;
  backward.forward = false;

  // Seed the frontiers at level 0, each as a one-item batch.
  auto seed = [this](const StateBitmap& state, Frontier* frontier) {
    std::vector<BatchItem> batch;
    CollectState(state, /*level=*/0, frontier, &batch);
    if (stats_.valuated_states + batch.size() > config_.max_states) {
      return;  // Budget of zero: nothing to do.
    }
    ValuateBatch(std::move(batch), frontier, ctx_.trace_parent);
  };
  seed(universe_->FullBitmap(), &forward);
  if (config_.bidirectional) {
    seed(universe_->BackwardBitmap(), &backward);
  }

  int level = 0;
  while (level < config_.max_level && !frontiers_met_ &&
         stats_.valuated_states < config_.max_states &&
         (!forward.queue.empty() ||
          (config_.bidirectional && !backward.queue.empty()))) {
    RefreshCorrelation();

    ExpandLevel(&forward, level);
    if (config_.bidirectional) ExpandLevel(&backward, level);

    if (config_.diversify) DiversifyLevel();
    ++level;
  }

  // Final skyline: alive grid entries, minus any residual cross-cell
  // dominance (the grid guarantees the ε-cover; the exact filter removes
  // dominated members so the output is mutually non-dominated).
  std::vector<size_t> alive;
  std::vector<PerfVector> perfs;
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (!entry_alive_[e]) continue;
    alive.push_back(e);
    perfs.push_back(entries_[e].eval.normalized);
  }
  ModisResult result = stats_;
  for (size_t idx : ParetoFrontNaive(perfs)) {
    result.skyline.push_back(entries_[alive[idx]]);
  }
  result.seconds = timer.Seconds();
  result.oracle_stats = oracle_->stats();
  if (PersistentRecordCache* cache = ctx_.record_cache) {
    TraceRecorder* const trace = ctx_.trace;
    SpanId flush_span = kNoSpan;
    if (trace != nullptr) flush_span = trace->Begin("flush", ctx_.trace_parent);
    const Status flushed = cache->Flush();
    (void)flushed;
    if (trace != nullptr) trace->End(flush_span);
    result.record_cache_active = true;
    // For a shared cache these counters are host-wide, not per-query;
    // per-query accounting lives in oracle_stats.persistent_hits.
    result.record_cache_stats = cache->stats();
  }
  return result;
}

}  // namespace modis
