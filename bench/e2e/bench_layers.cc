/// bench_layers — the probe half of the serving benchmark's per-layer
/// metrics: direct, timed calls into each module's public functions on a
/// workload's own inputs (its tasks, seeded states, and request and
/// response payloads). Every probe reports the median and p90 of its
/// per-call times together with the call count.
///
/// Probes (metric: the call timed):
///   datagen.context_build_ms.T{1,2,3}: MakeTabularBench +
///       SearchUniverse::Build
///   core.materialize_us: SearchUniverse::Materialize (T3)
///   core.materialize_from_us: SearchUniverse::MaterializeFrom along one
///       flip (T3)
///   core.count_rows_us: SearchUniverse::CountRows (T3)
///   ml.encode_us.T{1,2,3}: TableToDataset
///   ml.fit_ms.{gbm_reg,rf_clf,ridge}: MlModel::Fit on the encoded train
///       split (T1, T2, T3)
///   estimator.evaluate_ms.T{1,2,3}: SupervisedEvaluator::Evaluate
///   ml.surrogate_fit_ms, ml.surrogate_predict_us: MultiOutputGbm Fit and
///       PredictRow on 120 recorded (features, normalized) rows
///   storage.open_ms: PersistentRecordCache::Open of the warm-set file
///   storage.get_us, storage.insert_us: PersistentRecordCache Get, Insert
///   storage.refresh_ms: RefreshIfChanged of a shared attachment after a
///       sibling's publish
///   storage.bytes_per_record: warm-set file bytes / records (a count)
///   service.http_parse_us: HttpParser Feed + TakeRequest
///   service.request_decode_us: ParseDiscoveryRequest
///   service.response_encode_us: SerializeDiscoveryResponse
///   service.ring_hop_us: ShmRing Install -> NextJob -> Complete -> Await
///       across two threads
///   common.parallel_for_us: ParallelFor over 60 empty items
///
/// The warm-set inputs come from running the workload's 24 warm queries
/// once through an in-process DiscoveryService with a cache file.
///
/// Usage: bench_layers --workload W --seed N [--json]
/// Run it from a scratch directory: it writes its cache and ring files
/// there.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/universe.h"
#include "datagen/tasks.h"
#include "estimator/oracle.h"
#include "estimator/supervised_evaluator.h"
#include "ml/dataset.h"
#include "ml/multi_output_gbm.h"
#include "service/http.h"
#include "service/shm_ring.h"
#include "service/wire.h"
#include "storage/persistent_record_cache.h"
#include "storage/record_log.h"
#include "workload.h"

using namespace modis;
using namespace modis::e2e;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

constexpr const char* kCachePath = "layers.rlog";
constexpr const char* kInsertPath = "layers-insert.rlog";
constexpr const char* kRingPath = "layers.ring";
/// Time budget per probe; every probe makes at least kMinCalls calls.
constexpr double kProbeSeconds = 0.12;
constexpr size_t kMinCalls = 5;

struct ProbeResult {
  double median = 0.0;
  double p90 = 0.0;
  size_t calls = 0;
  std::string unit;
};

class Probes {
 public:
  /// Times `fn` per call, in `unit` ("ms" or "us"), for at least
  /// kMinCalls calls and kProbeSeconds.
  void Time(const std::string& name, const std::string& unit,
            const std::function<void()>& fn) {
    const double scale = unit == "ms" ? 1e3 : 1e6;
    std::vector<double> samples;
    const Clock::time_point start = Clock::now();
    while (!Done(samples, start)) {
      const Clock::time_point call = Clock::now();
      fn();
      samples.push_back(Seconds(call) * scale);
    }
    Add(name, unit, samples);
  }

  static bool Done(const std::vector<double>& samples,
                   Clock::time_point start) {
    return samples.size() >= kMinCalls && Seconds(start) >= kProbeSeconds;
  }

  void Add(const std::string& name, const std::string& unit,
           const std::vector<double>& samples) {
    results_[name] = {Percentile(samples, 0.5), Percentile(samples, 0.9),
                      samples.size(), unit};
  }

  void Print(bool json) const {
    if (!json) {
      for (const auto& [name, r] : results_) {
        std::printf("%-34s median %12.4f %-5s p90 %12.4f  calls %zu\n",
                    name.c_str(), r.median, r.unit.c_str(), r.p90, r.calls);
      }
      return;
    }
    JsonValue metrics{JsonValue::Object{}};
    for (const auto& [name, r] : results_) {
      JsonValue entry{JsonValue::Object{}};
      entry.Set("value", r.median);
      entry.Set("unit", r.unit);
      entry.Set("p90", r.p90);
      entry.Set("calls", r.calls);
      metrics.Set(name, std::move(entry));
    }
    JsonValue doc{JsonValue::Object{}};
    doc.Set("metrics", std::move(metrics));
    std::printf("%s\n", doc.Dump().c_str());
  }

 private:
  std::map<std::string, ProbeResult> results_;
};

/// Keeps a value alive so the optimizer cannot drop the call that made it.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

BenchTaskId TaskId(const std::string& task) {
  if (task == "T1") return BenchTaskId::kMovie;
  if (task == "T2") return BenchTaskId::kHouse;
  return BenchTaskId::kAvocado;
}

/// A task's context plus the seed's states over it.
struct TaskInputs {
  std::unique_ptr<TabularBench> bench;
  std::unique_ptr<SearchUniverse> universe;
  SupervisedTask task;  // Measures filtered as the workload requests them.
  StateBitmap state;
  StateBitmap child;  // `state` with one more cluster unit off.
  Table table;        // Materialize(state).
};

/// Turns off three seed-drawn cluster units of the full state, and a
/// fourth for the one-flip child.
void DrawStates(const SearchUniverse& universe, uint64_t seed,
                TaskInputs* in) {
  const size_t base = universe.layout().num_attributes();
  const size_t clusters = universe.layout().num_units() - base;
  Rng rng(seed * 31u + 17u);
  const std::vector<size_t> off =
      rng.SampleWithoutReplacement(clusters, std::min<size_t>(4, clusters));
  in->state = universe.FullBitmap();
  for (size_t i = 0; i + 1 < off.size(); ++i) {
    in->state.Set(base + off[i], false);
  }
  in->child = in->state;
  if (!off.empty()) in->child.Set(base + off.back(), false);
}

SupervisedTask RequestedTask(const SupervisedTask& full,
                             const std::string& task) {
  SupervisedTask filtered = full;
  filtered.measures.clear();
  for (const std::string& name : TaskMeasures(task)) {
    for (const MeasureSpec& spec : full.measures) {
      if (spec.name == name) filtered.measures.push_back(spec);
    }
  }
  return filtered;
}

int Run(Workload workload, uint64_t seed, bool json) {
  Probes probes;
  std::map<std::string, TaskInputs> inputs;

  // ---- datagen: one task context per probe call; the last one built
  // feeds the other probes.
  for (const char* task : {"T1", "T2", "T3"}) {
    TaskInputs& in = inputs[task];
    bool built = true;
    probes.Time(std::string("datagen.context_build_ms.") + task, "ms", [&] {
      auto bench = MakeTabularBench(TaskId(task), kRowScale);
      if (!bench.ok()) {
        built = false;
        return;
      }
      auto universe =
          SearchUniverse::Build(bench->universal, bench->universe_options);
      if (!universe.ok()) {
        built = false;
        return;
      }
      in.bench = std::make_unique<TabularBench>(std::move(bench).value());
      in.universe =
          std::make_unique<SearchUniverse>(std::move(universe).value());
    });
    if (!built) {
      std::fprintf(stderr, "bench_layers: building %s failed\n", task);
      return 1;
    }
    in.task = RequestedTask(in.bench->task, task);
    DrawStates(*in.universe, seed, &in);
    in.table = in.universe->Materialize(in.state);
  }

  // ---- core, on T3 (the task whose cold queries materialize most).
  {
    const TaskInputs& in = inputs["T3"];
    const SearchUniverse& universe = *in.universe;
    probes.Time("core.materialize_us", "us",
                [&] { Keep(universe.Materialize(in.state)); });
    const MaterializationPtr parent = universe.MaterializeRecord(in.state);
    probes.Time("core.materialize_from_us", "us",
                [&] { Keep(universe.MaterializeFrom(*parent, in.child)); });
    probes.Time("core.count_rows_us", "us",
                [&] { Keep(universe.CountRows(in.child)); });
  }

  // ---- ml + estimator, per task.
  const std::map<std::string, std::string> families = {
      {"T1", "gbm_reg"}, {"T2", "rf_clf"}, {"T3", "ridge"}};
  for (auto& [task, in] : inputs) {
    BridgeOptions bridge;
    bridge.exclude = in.task.exclude;
    probes.Time("ml.encode_us." + task, "us", [&] {
      Keep(TableToDataset(in.table, in.task.target, in.task.task, bridge));
    });
    auto encoded =
        TableToDataset(in.table, in.task.target, in.task.task, bridge);
    if (!encoded.ok()) {
      std::fprintf(stderr, "bench_layers: encoding %s failed: %s\n",
                   task.c_str(), encoded.status().ToString().c_str());
      return 1;
    }
    Rng split_rng(in.task.seed);
    const SplitIndices split = TrainTestSplit(
        encoded->num_rows(), in.task.test_fraction, &split_rng);
    const MlDataset train = encoded->SelectRows(split.train);
    probes.Time("ml.fit_ms." + families.at(task), "ms", [&] {
      std::unique_ptr<MlModel> model = in.bench->model->Clone();
      Rng rng(in.task.seed);
      Keep(model->Fit(train, &rng));
    });
    SupervisedEvaluator evaluator(in.task, in.bench->model->Clone());
    probes.Time("estimator.evaluate_ms." + task, "ms",
                [&] { Keep(evaluator.Evaluate(in.table)); });
  }

  // ---- The warm set through an in-process service: its answers are the
  // response payloads, its cache file the storage probes' input.
  std::filesystem::remove(kCachePath);
  std::filesystem::remove(kInsertPath);
  std::vector<DiscoveryResponse> warm_answers;
  {
    DiscoveryService::Options options;
    options.default_cache_path = kCachePath;
    options.task_row_scale = kRowScale;
    DiscoveryService service(options);
    for (const DiscoveryRequest& request : WarmSet()) {
      auto answer = service.Answer(request);
      if (!answer.ok()) {
        std::fprintf(stderr, "bench_layers: warm query failed: %s\n",
                     answer.status().ToString().c_str());
        return 1;
      }
      warm_answers.push_back(std::move(answer).value());
    }
  }  // Flushes the cache and releases its writer lock.

  std::vector<StoredRecord> records;
  {
    auto log = RecordLog::Open(kCachePath, /*read_only=*/true, &records);
    if (!log.ok() || records.empty()) {
      std::fprintf(stderr, "bench_layers: warm-set cache unreadable\n");
      return 1;
    }
  }
  probes.Add("storage.bytes_per_record", "B",
             {double(std::filesystem::file_size(kCachePath)) /
              double(records.size())});
  probes.Time("storage.open_ms", "ms", [&] {
    Keep(PersistentRecordCache::Open(kCachePath, CacheMode::kRead, 0));
  });
  {
    auto cache = PersistentRecordCache::Open(kCachePath, CacheMode::kRead, 0);
    auto fresh =
        PersistentRecordCache::Open(kInsertPath, CacheMode::kReadWrite, 0);
    if (!cache.ok() || !fresh.ok()) {
      std::fprintf(stderr, "bench_layers: opening the probe caches failed\n");
      return 1;
    }
    size_t i = 0;
    StoredRecord out;
    probes.Time("storage.get_us", "us", [&] {
      const StoredRecord& r = records[(i++ * 2654435761u) % records.size()];
      Keep((*cache)->Get(r.fingerprint, r.key, &out));
    });
    // Into an empty file, so the warm-set file stays the refresh input.
    size_t inserted = 0;
    probes.Time("storage.insert_us", "us", [&] {
      const StoredRecord& r = records[inserted % records.size()];
      (*fresh)->Insert(r.fingerprint,
                       "insert-probe-" + std::to_string(inserted++),
                       r.features, r.eval);
    });
  }
  {
    auto reader = PersistentRecordCache::OpenShared(kCachePath, 0);
    auto sibling = PersistentRecordCache::OpenShared(kCachePath, 0);
    if (!reader.ok() || !sibling.ok()) {
      std::fprintf(stderr, "bench_layers: shared open failed\n");
      return 1;
    }
    size_t published = 0;
    const StoredRecord& r = records.front();
    std::vector<double> refresh_ms;
    const Clock::time_point start = Clock::now();
    while (!Probes::Done(refresh_ms, start)) {
      (*sibling)->Insert(r.fingerprint,
                         "refresh-probe-" + std::to_string(published++),
                         r.features, r.eval);
      if (!(*sibling)->Flush().ok()) break;
      // The file's (size, mtime) stamp changed: the reader reloads.
      const Clock::time_point call = Clock::now();
      Keep((*reader)->RefreshIfChanged());
      refresh_ms.push_back(Seconds(call) * 1e3);
    }
    probes.Add("storage.refresh_ms", "ms", refresh_ms);
  }

  // ---- ml surrogate on 120 recorded (features, normalized) rows of the
  // fingerprint with the most records.
  {
    std::map<uint64_t, std::vector<const StoredRecord*>> by_fp;
    for (const StoredRecord& r : records) by_fp[r.fingerprint].push_back(&r);
    const std::vector<const StoredRecord*>* rows = &by_fp.begin()->second;
    for (const auto& [fp, group] : by_fp) {
      if (group.size() > rows->size()) rows = &group;
    }
    const size_t n = std::min<size_t>(120, rows->size());
    Matrix x(n, (*rows)[0]->features.size());
    Matrix y(n, (*rows)[0]->eval.normalized.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < x.cols(); ++j) {
        x.At(i, j) = (*rows)[i]->features[j];
      }
      for (size_t j = 0; j < y.cols(); ++j) {
        y.At(i, j) = (*rows)[i]->eval.normalized[j];
      }
    }
    const SurrogateOptions surrogate;
    MultiOutputGbm model(surrogate.gbm);
    probes.Time("ml.surrogate_fit_ms", "ms", [&] {
      Rng rng(surrogate.seed);
      Keep(model.Fit(x, y, &rng));
    });
    size_t i = 0;
    probes.Time("ml.surrogate_predict_us", "us",
                [&] { Keep(model.PredictRow(&x.At(i++ % n, 0))); });
  }

  // ---- service: the workload's own request bytes and warm responses.
  std::vector<std::string> warm_bodies;
  for (const DiscoveryRequest& request : WarmSet()) {
    warm_bodies.push_back(SerializeDiscoveryRequest(request));
  }
  std::vector<std::string> bodies = warm_bodies;
  for (size_t i = 0; i < 10; ++i) {
    bodies.push_back(SerializeDiscoveryRequest(
        ColdRequest(seed, i, ColdCacheMode(workload))));
  }
  {
    size_t i = 0;
    probes.Time("service.http_parse_us", "us", [&] {
      HttpParser parser;
      parser.Feed(HttpQuery(bodies[i++ % bodies.size()]));
      if (parser.has_request()) Keep(parser.TakeRequest());
    });
    probes.Time("service.request_decode_us", "us", [&] {
      Keep(ParseDiscoveryRequest(bodies[i++ % bodies.size()]));
    });
    probes.Time("service.response_encode_us", "us", [&] {
      Keep(SerializeDiscoveryResponse(warm_answers[i++ % warm_answers.size()]));
    });
  }
  {
    std::unique_ptr<ShmRing> ring;
    if (!ShmRing::Create(kRingPath, ShmRing::Options(), &ring).ok()) {
      std::fprintf(stderr, "bench_layers: ring create failed\n");
      return 1;
    }
    const std::string response = SerializeDiscoveryResponse(warm_answers[0]);
    std::thread worker([&] {
      ShmRing::Job job;
      for (;;) {
        const Status next = ring->NextJob(0, 100, &job);
        if (next.code() == StatusCode::kFailedPrecondition) return;
        if (next.ok()) (void)ring->Complete(job, Status::OK(), response);
      }
    });
    size_t i = 0;
    probes.Time("service.ring_hop_us", "us", [&] {
      uint64_t ticket = 0;
      std::string answer;
      if (ring->Install(warm_bodies[i++ % warm_bodies.size()], &ticket).ok()) {
        Keep(ring->Await(ticket, 10000, &answer));
      }
    });
    ring->RequestStop();
    worker.join();
    ring.reset();
    ::unlink(kRingPath);
  }

  // ---- common: dispatch overhead of the shared valuation pool.
  {
    ThreadPool pool(0);
    probes.Time("common.parallel_for_us", "us", [&] {
      Keep(ParallelFor(&pool, 0, 60, [](size_t) {}));
    });
  }

  std::filesystem::remove(kCachePath);
  std::filesystem::remove(kInsertPath);
  probes.Print(json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json = true;
    } else if (flag == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (flag == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      workload_name.clear();
      break;
    }
  }
  Workload workload;
  if (!ParseWorkload(workload_name, &workload)) {
    std::fprintf(stderr,
                 "usage: bench_layers --workload "
                 "isolated|read_write|pool_read_write --seed N [--json]\n");
    return 2;
  }
  return Run(workload, seed, json);
}
