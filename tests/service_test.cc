#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "core/algorithms.h"
#include "datagen/tasks.h"
#include "estimator/supervised_evaluator.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "service/discovery_service.h"
#include "service/json.h"
#include "service/qos.h"
#include "service/wire.h"
#include "storage/persistent_record_cache.h"
#include "storage/record_log.h"

namespace modis {
namespace {

namespace fs = std::filesystem;

constexpr double kRowScale = 0.4;

std::string TempPath(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove(path);
  fs::remove(fs::path(path.string() + ".compact"));
  return path.string();
}

/// The canonical test query: T2 at a small budget, wall-clock measures
/// excluded so answers are bit-reproducible.
DiscoveryRequest MakeRequest(const std::string& variant) {
  DiscoveryRequest request;
  request.task = "T2";
  request.variant = variant;
  request.epsilon = 0.25;
  request.budget = 40;
  request.maxl = 2;
  request.measures = {"f1", "acc", "fisher", "mi"};
  return request;
}

DiscoveryService::Options SmallServiceOptions() {
  DiscoveryService::Options options;
  options.sessions = 2;
  options.queue_capacity = 16;
  options.valuation_threads = 2;
  options.task_row_scale = kRowScale;
  return options;
}

void ExpectSameSkylines(const DiscoveryResponse& a,
                        const DiscoveryResponse& b) {
  auto sorted = [](const DiscoveryResponse& r) {
    std::vector<DiscoverySkylineRow> rows = r.skyline;
    std::sort(rows.begin(), rows.end(),
              [](const DiscoverySkylineRow& x, const DiscoverySkylineRow& y) {
                return x.signature < y.signature;
              });
    return rows;
  };
  const auto rows_a = sorted(a);
  const auto rows_b = sorted(b);
  ASSERT_EQ(rows_a.size(), rows_b.size());
  ASSERT_FALSE(rows_a.empty());
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].signature, rows_b[i].signature);
    EXPECT_EQ(rows_a[i].level, rows_b[i].level);
    EXPECT_EQ(rows_a[i].rows, rows_b[i].rows);
    EXPECT_EQ(rows_a[i].cols, rows_b[i].cols);
    ASSERT_EQ(rows_a[i].raw.size(), rows_b[i].raw.size());
    for (size_t j = 0; j < rows_a[i].raw.size(); ++j) {
      EXPECT_DOUBLE_EQ(rows_a[i].raw[j], rows_b[i].raw[j]);
      EXPECT_DOUBLE_EQ(rows_a[i].normalized[j], rows_b[i].normalized[j]);
    }
  }
}

// ----------------------------------------------------------------- json

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{"f":[1,2]}})";
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);
  EXPECT_EQ(parsed->GetNumber("a", 0), 1.0);
  EXPECT_EQ(parsed->GetNumber("b", 0), -2.5);
  EXPECT_EQ(parsed->GetString("c", ""), "x\n\"y\"");
  ASSERT_NE(parsed->Get("d"), nullptr);
  EXPECT_EQ(parsed->Get("d")->AsArray().size(), 3u);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1}}", "nan"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, NumbersRoundTripIntegersExactly) {
  auto parsed = JsonValue::Parse("{\"n\":90071992547409,\"f\":0.125}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), "{\"n\":90071992547409,\"f\":0.125}");
}

// ----------------------------------------------------------------- wire

TEST(WireTest, RequestRoundTrip) {
  DiscoveryRequest request = MakeRequest("div");
  request.oracle = "gbm";
  request.cache_path = "/tmp/x.rlog";
  request.cache_mode = "read";
  request.cache_namespace = "ns";
  request.seed = 77;
  auto decoded = ParseDiscoveryRequest(SerializeDiscoveryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->task, request.task);
  EXPECT_EQ(decoded->variant, request.variant);
  EXPECT_EQ(decoded->oracle, request.oracle);
  EXPECT_EQ(decoded->measures, request.measures);
  EXPECT_DOUBLE_EQ(decoded->epsilon, request.epsilon);
  EXPECT_EQ(decoded->budget, request.budget);
  EXPECT_EQ(decoded->maxl, request.maxl);
  EXPECT_EQ(decoded->k, request.k);
  EXPECT_DOUBLE_EQ(decoded->alpha, request.alpha);
  EXPECT_EQ(decoded->cache_path, request.cache_path);
  EXPECT_EQ(decoded->cache_mode, request.cache_mode);
  EXPECT_EQ(decoded->cache_namespace, request.cache_namespace);
  EXPECT_EQ(decoded->seed, request.seed);
}

TEST(WireTest, RequestRequiresTask) {
  EXPECT_FALSE(ParseDiscoveryRequest("{\"variant\":\"bi\"}").ok());
  EXPECT_FALSE(ParseDiscoveryRequest("[1,2]").ok());
  EXPECT_FALSE(ParseDiscoveryRequest("not json").ok());
}

TEST(WireTest, ErrorResponsesDecodeIntoStatus) {
  const std::string line =
      SerializeDiscoveryError(Status::InvalidArgument("bad task"));
  auto decoded = ParseDiscoveryResponse(line);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(), "bad task");
  // The transported code survives: a worker's typed error keeps its HTTP
  // mapping once the coordinator decodes it.
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- service

TEST(ServiceTest, AnswerMatchesDetachedBatchRun) {
  DiscoveryService service(SmallServiceOptions());
  const DiscoveryRequest request = MakeRequest("bi");
  auto served = service.Answer(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->task, "T2-house");
  EXPECT_FALSE(served->cache_active);
  EXPECT_EQ(served->measure_names,
            (std::vector<std::string>{"f1", "acc", "fisher", "mi"}));

  auto batch = DiscoveryService::AnswerDetached(request, kRowScale);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectSameSkylines(*served, *batch);
  EXPECT_EQ(served->valuated_states, batch->valuated_states);
  EXPECT_EQ(served->exact_evals, batch->exact_evals);
}

TEST(ServiceTest, WarmQueryReplaysWithZeroTrainings) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.default_cache_path = TempPath("service_warm.rlog");
  DiscoveryService service(options);
  const DiscoveryRequest request = MakeRequest("bi");

  auto cold = service.Answer(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->cache_active);
  EXPECT_GT(cold->exact_evals, 0u);
  EXPECT_EQ(cold->persistent_hits, 0u);

  auto warm = service.Answer(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->exact_evals, 0u);
  EXPECT_EQ(warm->persistent_hits, cold->exact_evals);
  ExpectSameSkylines(*cold, *warm);
}

TEST(ServiceTest, PerQueryReadModeServesWithoutAppending) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.default_cache_path = TempPath("service_read.rlog");
  DiscoveryService service(options);

  DiscoveryRequest request = MakeRequest("bi");
  auto cold = service.Answer(request);
  ASSERT_TRUE(cold.ok());

  // A kRead view of the shared cache: replays everything recorded, but a
  // different variant's extra trainings must not be appended.
  DiscoveryRequest read_request = MakeRequest("apx");
  read_request.cache_mode = "read";
  auto read_run = service.Answer(read_request);
  ASSERT_TRUE(read_run.ok()) << read_run.status().ToString();
  EXPECT_GT(read_run->persistent_hits, 0u);

  // Re-running apx read_write now should still have trainings to do —
  // the read-mode run wrote nothing, so nothing extra replays from the
  // cache (the host-wide fusion memo may serve them without retraining,
  // which is the fused_hits share of the accounting).
  auto rw_run = service.Answer(MakeRequest("apx"));
  ASSERT_TRUE(rw_run.ok());
  EXPECT_EQ(rw_run->persistent_hits, read_run->persistent_hits);
  EXPECT_EQ(rw_run->exact_evals + rw_run->fused_hits, read_run->exact_evals);
  ExpectSameSkylines(*read_run, *rw_run);
}

/// The acceptance gate of the serving subsystem: 4 concurrent clients
/// sharing one locked cache file finish with no corruption and skylines
/// byte-identical to serial execution.
TEST(ServiceTest, FourConcurrentClientsMatchSerialOnSharedCache) {
  const std::vector<std::string> variants = {"apx", "nobi", "bi", "div"};

  // Serial reference: one session, its own cache file.
  std::vector<DiscoveryResponse> serial;
  {
    DiscoveryService::Options options = SmallServiceOptions();
    options.sessions = 1;
    options.default_cache_path = TempPath("service_serial.rlog");
    DiscoveryService service(options);
    for (const std::string& variant : variants) {
      auto response = service.Answer(MakeRequest(variant));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      serial.push_back(std::move(response).value());
    }
  }

  // Concurrent run: 4 sessions, 4 client threads, one fresh shared file.
  const std::string cache_path = TempPath("service_concurrent.rlog");
  std::vector<Result<DiscoveryResponse>> concurrent(
      variants.size(), Result<DiscoveryResponse>(Status::Internal("unset")));
  {
    DiscoveryService::Options options = SmallServiceOptions();
    options.sessions = 4;
    options.default_cache_path = cache_path;
    DiscoveryService service(options);
    ASSERT_TRUE(service.Preload("T2").ok());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < variants.size(); ++i) {
      clients.emplace_back([&service, &concurrent, &variants, i] {
        concurrent[i] = service.Answer(MakeRequest(variants[i]));
      });
    }
    for (std::thread& c : clients) c.join();
  }

  for (size_t i = 0; i < variants.size(); ++i) {
    ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].status().ToString();
    ExpectSameSkylines(serial[i], concurrent[i].value());
    // Replays and fused trainings may replace own trainings across
    // concurrent queries, but every valuation is accounted for exactly.
    EXPECT_EQ(concurrent[i]->exact_evals + concurrent[i]->persistent_hits +
                  concurrent[i]->fused_hits,
              serial[i].exact_evals + serial[i].persistent_hits +
                  serial[i].fused_hits);
  }

  // No corruption: the shared file reloads cleanly end to end.
  std::vector<StoredRecord> records;
  auto log = RecordLog::Open(cache_path, /*read_only=*/true, &records);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->discarded_tail_bytes(), 0u);
  EXPECT_GT(records.size(), 0u);
  for (const StoredRecord& r : records) {
    EXPECT_FALSE(r.key.empty());
    EXPECT_EQ(r.eval.raw.size(), 4u);
    EXPECT_EQ(r.eval.normalized.size(), 4u);
  }
}

/// The cross-query fusion gate: two clients racing the same cold query
/// (no record cache, so fusion is the only sharing path) train each
/// unique state exactly once host-wide and answer byte-identically to
/// the detached serial reference.
TEST(ServiceTest, ConcurrentOverlappingColdQueriesFuseTrainings) {
  const DiscoveryRequest request = MakeRequest("bi");
  auto serial = DiscoveryService::AnswerDetached(request, kRowScale);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial->exact_evals, 0u);

  std::vector<Result<DiscoveryResponse>> fused(
      2, Result<DiscoveryResponse>(Status::Internal("unset")));
  DiscoveryService service(SmallServiceOptions());
  ASSERT_TRUE(service.Preload("T2").ok());
  {
    std::vector<std::thread> clients;
    for (size_t i = 0; i < fused.size(); ++i) {
      clients.emplace_back([&service, &fused, &request, i] {
        fused[i] = service.Answer(request);
      });
    }
    for (std::thread& c : clients) c.join();
  }

  size_t executed = 0, shared = 0;
  for (const auto& response : fused) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectSameSkylines(*serial, response.value());
    // Every valuation is accounted for: an own training or a fused share.
    EXPECT_EQ(response->exact_evals + response->fused_hits,
              serial->exact_evals);
    executed += response->exact_evals;
    shared += response->fused_hits;
  }
  // Each unique state was trained exactly once across the whole host;
  // every duplicate request was served by the fuser.
  EXPECT_EQ(executed, serial->exact_evals);
  EXPECT_EQ(shared, serial->exact_evals);

  // The metrics registry exports the same accounting.
  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  EXPECT_EQ(snapshot.trainings_shared, shared);
  EXPECT_GE(snapshot.queries_fused, 1u);
  EXPECT_LE(snapshot.queries_fused, 2u);
}

TEST(ServiceTest, AdmissionQueueRejectsWhenFull) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.sessions = 1;
  options.queue_capacity = 1;
  DiscoveryService* service = new DiscoveryService(options);

  std::atomic<size_t> completed{0};
  size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 6; ++i) {
    const Status submitted = service->Submit(
        MakeRequest("apx"),
        [&completed](Result<DiscoveryResponse> response) {
          EXPECT_TRUE(response.ok());
          completed.fetch_add(1);
        });
    if (submitted.ok()) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_NE(submitted.message().find("queue full"), std::string::npos);
    }
  }
  EXPECT_GE(accepted, 1u);
  EXPECT_GE(rejected, 1u);
  const auto stats = service->stats();
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.rejected, rejected);

  // Destruction drains: every accepted request completes, none is lost.
  delete service;
  EXPECT_EQ(completed.load(), accepted);
}

TEST(ServiceTest, UnknownInputsFailCleanly) {
  DiscoveryService service(SmallServiceOptions());
  DiscoveryRequest request = MakeRequest("bi");
  request.task = "T9";
  EXPECT_FALSE(service.Answer(request).ok());

  request = MakeRequest("bi");
  request.variant = "fastest";
  EXPECT_FALSE(service.Answer(request).ok());

  // A bad `measures` entry is rejected by name: an unknown name and a
  // real measure listed twice get different messages.
  const auto expect_measure_error = [&](std::vector<std::string> measures,
                                        const std::string& message) {
    DiscoveryRequest bad = MakeRequest("bi");
    bad.measures = std::move(measures);
    auto answer = service.Answer(bad);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(answer.status().message().find(message), std::string::npos)
        << answer.status().ToString();
  };
  expect_measure_error({"acc", "no_such_measure"},
                       "unknown measure 'no_such_measure'");
  expect_measure_error({"acc", "acc"}, "measure 'acc' listed twice");

  request = MakeRequest("bi");
  request.oracle = "oracle-of-delphi";
  EXPECT_FALSE(service.Answer(request).ok());
}

// ----------------------------------------------------- cache byte budget

/// Hosts default to a *bounded* cache (256 MiB) rather than unbounded
/// growth, and the budget is actually enforced end to end: a tiny budget
/// keeps the log file under it across queries that would otherwise
/// accumulate records forever.
TEST(ServiceLifecycleTest, DefaultCacheBudgetIsBoundedAndEnforced) {
  // The production default: bounded, not 0.
  EXPECT_EQ(DiscoveryService::Options().cache_max_bytes,
            DiscoveryService::Options::kDefaultCacheMaxBytes);
  EXPECT_GT(DiscoveryService::Options::kDefaultCacheMaxBytes, 0u);

  const std::string path = TempPath("service_budget.rlog");
  const uint64_t budget = 4096;
  {
    DiscoveryService::Options options = SmallServiceOptions();
    options.default_cache_path = path;
    options.cache_max_bytes = budget;
    DiscoveryService service(options);
    for (const char* variant : {"bi", "apx"}) {
      auto response = service.Answer(MakeRequest(variant));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
    }
    EXPECT_GT(service.SnapshotMetrics().cache_evictions, 0u);
  }
  // After the final flush the log observes the budget.
  ASSERT_TRUE(fs::exists(path));
  EXPECT_LE(fs::file_size(path), budget);
}

// ---------------------------------------------------- satellite coverage

/// Parallel surrogate batch prediction must not change the skyline: the
/// kSurrogate fan-out (oracle.cc) is a pure function of the committed
/// estimator, so nt=1 and nt=4 agree bit for bit.
TEST(ServiceSatelliteTest, SurrogateSkylineIdenticalAcrossThreadCounts) {
  auto bench = MakeTabularBench(BenchTaskId::kHouse, kRowScale);
  ASSERT_TRUE(bench.ok());
  auto universe =
      SearchUniverse::Build(bench->universal, bench->universe_options);
  ASSERT_TRUE(universe.ok());
  SupervisedTask task = bench->task;
  task.measures.clear();
  for (const MeasureSpec& m : bench->task.measures) {
    if (m.name != "train_time") task.measures.push_back(m);
  }

  auto run = [&](size_t num_threads) {
    SupervisedEvaluator evaluator(task, bench->model->Clone());
    PerformanceOracle oracle(&evaluator, SurrogateOptions{});
    ModisConfig config;
    config.epsilon = 0.25;
    config.max_states = 90;
    config.max_level = 3;
    config.num_threads = num_threads;
    auto result = RunBiModis(*universe, &oracle, config);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };

  const ModisResult serial = run(1);
  const ModisResult threaded = run(4);
  EXPECT_GT(serial.oracle_stats.surrogate_evals, 0u);
  EXPECT_EQ(serial.oracle_stats.surrogate_evals,
            threaded.oracle_stats.surrogate_evals);
  ASSERT_EQ(serial.skyline.size(), threaded.skyline.size());
  for (size_t i = 0; i < serial.skyline.size(); ++i) {
    EXPECT_EQ(serial.skyline[i].state.Signature(),
              threaded.skyline[i].state.Signature());
    for (size_t j = 0; j < serial.skyline[i].eval.normalized.size(); ++j) {
      EXPECT_DOUBLE_EQ(serial.skyline[i].eval.normalized[j],
                       threaded.skyline[i].eval.normalized[j]);
    }
  }
}

/// A byte-bounded shared cache may evict a record between a session's
/// plan (which marked it kPersistent) and its commit. The oracle must
/// degrade that to a fresh inline training — identical evaluation, no
/// crash — never abort the host.
TEST(ServiceSatelliteTest, EvictedPlannedHitDegradesToFreshTraining) {
  auto bench = MakeTabularBench(BenchTaskId::kHouse, kRowScale);
  ASSERT_TRUE(bench.ok());
  auto universe =
      SearchUniverse::Build(bench->universal, bench->universe_options);
  ASSERT_TRUE(universe.ok());
  SupervisedTask task = bench->task;
  task.measures.clear();
  for (const MeasureSpec& m : bench->task.measures) {
    if (m.name != "train_time") task.measures.push_back(m);
  }
  SupervisedEvaluator evaluator(task, bench->model->Clone());

  // A budget smaller than any record: every flush evicts everything.
  PersistentRecordCache::Options tiny;
  tiny.max_bytes = RecordLog::kHeaderSize;
  const std::string path = TempPath("evict_race.rlog");
  auto cache =
      PersistentRecordCache::Open(path, CacheMode::kReadWrite, 11, tiny);
  ASSERT_TRUE(cache.ok());

  const StateBitmap state = universe->FullBitmap();
  auto make_request = [&] {
    ValuationRequest request;
    request.key = state.Signature();
    request.features = universe->StateFeatures(state);
    request.universe = &*universe;
    request.materialize = [&universe, &state] {
      return universe->MaterializeRecord(state);
    };
    return request;
  };

  // Seed the record directly (append buffered, NOT yet flushed — an
  // oracle batch would flush and the tiny budget would evict at once).
  auto trained = evaluator.Evaluate(universe->Materialize(state));
  ASSERT_TRUE(trained.ok());
  const Evaluation truth = trained.value();
  (*cache)->Insert(11, state.Signature(), universe->StateFeatures(state),
                   truth);

  // Session 2 plans a replay of that record...
  PerformanceOracle second(&evaluator);
  ValuationContext context;
  context.record_cache = cache->get();
  context.write_through = true;
  context.fingerprint = 11;
  std::vector<ValuationRequest> requests;
  requests.push_back(make_request());
  BatchPlan plan = second.PrepareBatch(std::move(requests), context);
  ASSERT_EQ(plan.modes[0], BatchPlan::Mode::kPersistent);

  // ...then a "concurrent" flush evicts it before the commit runs.
  MODIS_CHECK_OK((*cache)->Flush());
  ASSERT_FALSE((*cache)->Touch(11, state.Signature()));

  const auto results = second.ValuateBatch(std::move(plan));
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(second.stats().persistent_hits, 0u);
  EXPECT_EQ(second.stats().exact_evals, 1u);
  for (size_t j = 0; j < truth.normalized.size(); ++j) {
    EXPECT_DOUBLE_EQ(results[0].value().normalized[j], truth.normalized[j]);
  }
}

/// Two tasks that differ only in the trained model prototype must not
/// share a fingerprint (the docs/PERSISTENCE.md §4 footgun, now closed).
TEST(ServiceSatelliteTest, ModelIdentityScopesTheTaskFingerprint) {
  auto bench = MakeTabularBench(BenchTaskId::kHouse, kRowScale);
  ASSERT_TRUE(bench.ok());
  auto universe =
      SearchUniverse::Build(bench->universal, bench->universe_options);
  ASSERT_TRUE(universe.ok());

  SupervisedEvaluator forest(bench->task,
                             std::make_unique<RandomForestClassifier>());
  SupervisedEvaluator gbm(bench->task,
                          std::make_unique<GradientBoostingClassifier>());
  EXPECT_NE(forest.ModelIdentity(), gbm.ModelIdentity());

  const uint64_t fp_forest = ModisEngine::TaskFingerprint(
      *universe, bench->task.measures, "", forest.ModelIdentity());
  const uint64_t fp_gbm = ModisEngine::TaskFingerprint(
      *universe, bench->task.measures, "", gbm.ModelIdentity());
  EXPECT_NE(fp_forest, fp_gbm);

  // The oracle plumbs the identity through unchanged, for both kinds.
  PerformanceOracle exact(&forest);
  PerformanceOracle surrogate(&forest, SurrogateOptions{});
  EXPECT_EQ(exact.ModelIdentity(), forest.ModelIdentity());
  EXPECT_EQ(surrogate.ModelIdentity(), forest.ModelIdentity());
}

// -------------------------------------------------------- multi-tenant QoS

TEST(QosTest, ParseTenantSpecGrammarAndErrors) {
  auto full = ParseTenantSpec("gold:gold-key:5:10:3:7");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->name, "gold");
  EXPECT_EQ(full->api_key, "gold-key");
  EXPECT_EQ(full->rate_per_s, 5.0);
  EXPECT_EQ(full->burst, 10.0);
  EXPECT_EQ(full->max_in_flight, 3u);
  EXPECT_EQ(full->priority, 7);

  auto minimal = ParseTenantSpec("free:free-key");
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->rate_per_s, 0.0);
  EXPECT_EQ(minimal->burst, 0.0);  // No bucket: unlimited rate.
  EXPECT_EQ(minimal->max_in_flight, 0u);
  EXPECT_EQ(minimal->priority, 0);

  auto catch_all = ParseTenantSpec("default::0:0:2:-1");
  ASSERT_TRUE(catch_all.ok());
  EXPECT_TRUE(catch_all->api_key.empty());  // Catch-all tenant.
  EXPECT_EQ(catch_all->priority, -1);

  for (const char* bad :
       {"", ":key", "na me:key", "t:key:-1", "t:key:5:0",  // rate needs burst
        "t:key:5:x", "t:key:0:0:1.5", "t:key:0:0:0:9999", "t:key:0:0:0:x"}) {
    EXPECT_FALSE(ParseTenantSpec(bad).ok()) << bad;
  }

  const Status rejected = QosRejected("gold", "rate limited", 2.5);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(RetryAfterSeconds(rejected), 2.5);
  EXPECT_EQ(RetryAfterSeconds(Status::OK()), 0.0);
  EXPECT_EQ(RetryAfterSeconds(Status::ResourceExhausted("no hint")), 0.0);
}

/// The fairness gate: a rate-limited tenant gets 429s while every other
/// tenant's answers stay byte-identical to an uncontended (QoS-off) run.
TEST(QosTest, RateLimitedTenantDoesNotPerturbOtherTenantsAnswers) {
  // Uncontended reference: identical service shape and query sequence,
  // no QoS. Rate-limited queries never execute, so the contended run
  // below must reproduce these counters exactly.
  DiscoveryResponse reference;
  {
    DiscoveryService service(SmallServiceOptions());
    ASSERT_TRUE(service.Answer(MakeRequest("apx")).ok());
    auto response = service.Answer(MakeRequest("bi"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    reference = std::move(response).value();
  }

  DiscoveryService::Options options = SmallServiceOptions();
  TenantSpec gold;
  gold.name = "gold";
  gold.api_key = "gold-key";
  gold.priority = 10;
  TenantSpec bronze;
  bronze.name = "bronze";
  bronze.api_key = "bronze-key";
  bronze.rate_per_s = 0.0;  // Never refills: deterministic burst-then-429.
  bronze.burst = 1.0;
  options.tenants = {gold, bronze};
  DiscoveryService service(options);

  DiscoveryRequest bronze_request = MakeRequest("apx");
  bronze_request.api_key = "bronze-key";
  ASSERT_TRUE(service.Answer(bronze_request).ok());
  for (int i = 0; i < 3; ++i) {
    auto limited = service.Answer(bronze_request);
    ASSERT_FALSE(limited.ok());
    EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted) << i;
    EXPECT_GT(RetryAfterSeconds(limited.status()), 0.0) << i;
  }

  DiscoveryRequest gold_request = MakeRequest("bi");
  gold_request.api_key = "gold-key";
  auto gold_response = service.Answer(gold_request);
  ASSERT_TRUE(gold_response.ok()) << gold_response.status().ToString();
  ExpectSameSkylines(reference, gold_response.value());
  EXPECT_EQ(gold_response->exact_evals, reference.exact_evals);
  EXPECT_EQ(gold_response->valuated_states, reference.valuated_states);

  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  EXPECT_EQ(snapshot.qos_rate_limited, 3u);
  ASSERT_EQ(snapshot.tenants.size(), 3u);  // gold, bronze, anonymous.
  EXPECT_EQ(snapshot.tenants[0].name, "gold");
  EXPECT_EQ(snapshot.tenants[0].served, 1u);
  EXPECT_EQ(snapshot.tenants[1].name, "bronze");
  EXPECT_EQ(snapshot.tenants[1].rate_limited, 3u);
  EXPECT_EQ(snapshot.tenants[1].served, 1u);
}

/// Parks the next query that opens a "train" span until Release() — the
/// in-process counterpart of a worker's hold point. A blocker parked there
/// keeps a single-session service busy for exactly as long as a test
/// needs, whatever a cold query costs. The span observer is process-global,
/// so the hold is too: one per test, declared after the service so it
/// releases the parked query before the service drains.
class TrainHold {
 public:
  TrainHold() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    held_ = false;
    released_ = false;
    SetGlobalSpanObserver(&OnSpan);
  }
  ~TrainHold() {
    Release();
    SetGlobalSpanObserver(nullptr);
  }

  /// True once a query is parked at "train" (false after 30 s).
  bool WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30), [] { return held_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  static void OnSpan(const char* name) {
    if (std::string(name) != "train") return;
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    armed_ = false;
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [] { return released_; });
  }

  static inline std::mutex mu_;
  static inline std::condition_variable cv_;
  static inline bool armed_ = false;
  static inline bool held_ = false;
  static inline bool released_ = false;
};

TEST(QosTest, InFlightQuotaRejectsTheExcessSynchronously) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.sessions = 1;
  TenantSpec capped;
  capped.name = "capped";
  capped.api_key = "capped-key";
  capped.max_in_flight = 2;
  options.tenants = {capped};
  std::atomic<size_t> completed{0};
  const auto count_done = [&completed](Result<DiscoveryResponse> response) {
    EXPECT_TRUE(response.ok());
    completed.fetch_add(1);
  };
  DiscoveryService service(options);
  TrainHold hold;

  DiscoveryRequest request = MakeRequest("apx");
  request.api_key = "capped-key";
  // The quota counts queued AND executing work: two submits fill it (one
  // parked mid-train on the single session, one queued), the third is
  // rejected at the door, synchronously.
  ASSERT_TRUE(service.Submit(request, count_done).ok());
  ASSERT_TRUE(hold.WaitUntilHeld());
  ASSERT_TRUE(service.Submit(request, count_done).ok());
  const Status third = service.Submit(request, count_done);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.message().find("in-flight quota"), std::string::npos);
  EXPECT_GT(RetryAfterSeconds(third), 0.0);

  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  ASSERT_EQ(snapshot.tenants.size(), 2u);
  EXPECT_EQ(snapshot.tenants[0].quota_rejected, 1u);
  hold.Release();
}

/// The shed-ordering gate: under a full queue, the cheapest-to-retry
/// queued work goes first — low priority before high, cold before warm —
/// and work that outranks nothing is rejected at the door instead.
TEST(QosTest, ShedOrderingDisplacesLowPriorityColdBeforeHighWarm) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.sessions = 1;
  options.queue_capacity = 2;
  TenantSpec low;
  low.name = "low";
  low.api_key = "low-key";
  low.priority = 0;
  TenantSpec high;
  high.name = "high";
  high.api_key = "high-key";
  high.priority = 10;
  options.tenants = {low, high};
  // Declared before the service: its drain still runs callbacks into them.
  std::mutex mu;
  std::vector<std::string> events;
  auto service = std::make_unique<DiscoveryService>(options);

  // Pre-warm one query so the shed ordering can tell warm from cold
  // (warmth is keyed on the request with the credential stripped).
  DiscoveryRequest warm_request = MakeRequest("apx");
  warm_request.api_key = "low-key";
  ASSERT_TRUE(service->Answer(warm_request).ok());

  const auto record = [&mu, &events](const std::string& label) {
    return [&mu, &events, label](Result<DiscoveryResponse> response) {
      std::string event = label;
      if (response.ok()) {
        event += ":ok";
      } else if (response.status().message().find("shed under overload") !=
                 std::string::npos) {
        event += ":shed";
        EXPECT_EQ(response.status().code(), StatusCode::kResourceExhausted);
      } else {
        event += ":" + response.status().ToString();
      }
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(std::move(event));
    };
  };

  // Occupy the single session: the blocker stays parked mid-train until
  // every submit below has been admitted or shed.
  TrainHold hold;
  ASSERT_TRUE(service->Submit(MakeRequest("bi"), record("blocker")).ok());
  ASSERT_TRUE(hold.WaitUntilHeld());

  // Fill the queue to capacity: a low-priority cold job and the
  // low-priority warm one.
  DiscoveryRequest low_cold = MakeRequest("div");
  low_cold.api_key = "low-key";
  ASSERT_TRUE(service->Submit(low_cold, record("low-cold")).ok());
  ASSERT_TRUE(service->Submit(warm_request, record("low-warm")).ok());

  // A high-priority submit displaces the low-priority COLD job first
  // (the warm one is nearly free to produce, so the cold one is the
  // better retry candidate) ...
  DiscoveryRequest high_cold = MakeRequest("nobi");
  high_cold.api_key = "high-key";
  ASSERT_TRUE(service->Submit(high_cold, record("high-1")).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], "low-cold:shed");
  }

  // ... and the next one displaces the low-priority WARM job.
  DiscoveryRequest high_cold2 = MakeRequest("bi");
  high_cold2.api_key = "high-key";
  ASSERT_TRUE(service->Submit(high_cold2, record("high-2")).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1], "low-warm:shed");
  }

  // With only high-priority work queued, a low submit outranks nothing:
  // rejected at the door, not displacing anything.
  const Status door = service->Submit(low_cold, record("low-again"));
  ASSERT_FALSE(door.ok());
  EXPECT_EQ(door.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(door.message().find("queue full"), std::string::npos);

  // Drain: everything still queued completes, highest priority first.
  hold.Release();
  service.reset();
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[2], "blocker:ok");
    EXPECT_EQ(events[3], "high-1:ok");
    EXPECT_EQ(events[4], "high-2:ok");
  }
}

/// Drain mid-overload: every job accepted before the drain completes in
/// full; every shed job saw exactly one ResourceExhausted callback; no
/// callback is ever dropped.
TEST(QosTest, DrainMidOverloadCompletesAllAcceptedWork) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.sessions = 1;
  options.queue_capacity = 2;
  TenantSpec low;
  low.name = "low";
  low.api_key = "low-key";
  low.priority = 0;
  TenantSpec high;
  high.name = "high";
  high.api_key = "high-key";
  high.priority = 10;
  options.tenants = {low, high};
  auto* service = new DiscoveryService(options);

  std::atomic<size_t> completed{0};
  std::atomic<size_t> shed{0};
  size_t accepted = 0;
  size_t door_rejected = 0;
  const std::vector<std::string> variants = {"apx", "nobi", "bi", "div"};
  for (size_t i = 0; i < 8; ++i) {
    DiscoveryRequest request = MakeRequest(variants[i % variants.size()]);
    request.api_key = (i % 2 == 0) ? "low-key" : "high-key";
    const Status submitted = service->Submit(
        request, [&completed, &shed](Result<DiscoveryResponse> response) {
          if (response.ok()) {
            completed.fetch_add(1);
          } else {
            EXPECT_EQ(response.status().code(),
                      StatusCode::kResourceExhausted);
            shed.fetch_add(1);
          }
        });
    if (submitted.ok()) {
      ++accepted;
    } else {
      ++door_rejected;
      EXPECT_EQ(submitted.code(), StatusCode::kResourceExhausted);
    }
  }
  EXPECT_GE(accepted, 3u);  // The executing job + a full queue, at least.

  const auto stats_before = service->stats();
  delete service;  // Drain mid-overload.

  // Every accepted job resolved exactly once: completed or shed.
  EXPECT_EQ(completed.load() + shed.load(), accepted);
  EXPECT_EQ(stats_before.accepted, accepted);
  EXPECT_EQ(accepted + door_rejected, 8u);
}

// ---------------------------------------------------------------- tracing

TEST(TraceRecorderTest, SpanTreeBasics) {
  TraceRecorder recorder;
  const SpanId root = recorder.Begin("query", kNoSpan);
  const SpanId child = recorder.Begin("plan", root);
  recorder.AddAttr(child, "batch_size", 7);
  recorder.End(child);
  recorder.End(root);
  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, root);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].first, "batch_size");
  EXPECT_EQ(spans[1].attrs[0].second, 7);
  EXPECT_GE(spans[1].start_ms, spans[0].start_ms);
  EXPECT_GE(spans[0].duration_ms, spans[1].duration_ms);
  EXPECT_GE(spans[1].duration_ms, 0.0);
  EXPECT_DOUBLE_EQ(SumSpanMs(spans, "plan"), spans[1].duration_ms);
  EXPECT_DOUBLE_EQ(SumSpanMs(spans, "absent"), 0.0);
}

TEST(TraceRecorderTest, UnendedAndInvalidSpansAreHarmless) {
  TraceRecorder recorder;
  const SpanId open = recorder.Begin("open", kNoSpan);
  recorder.End(kNoSpan);     // No-op.
  recorder.End(SpanId(99));  // Out of range: no-op.
  recorder.AddAttr(kNoSpan, "x", 1);
  recorder.AddAttr(SpanId(99), "x", 1);
  auto spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_LT(spans[0].duration_ms, 0.0);  // Still open.
  // Unended spans never contribute to phase sums.
  EXPECT_DOUBLE_EQ(SumSpanMs(spans, "open"), 0.0);
  recorder.End(open);
  const double first = recorder.Snapshot()[0].duration_ms;
  EXPECT_GE(first, 0.0);
  recorder.End(open);  // Double End keeps the first duration.
  EXPECT_DOUBLE_EQ(recorder.Snapshot()[0].duration_ms, first);
}

/// A worker's subtree joins the coordinator's trace: ids and parents
/// offset past the host's spans, the worker's roots under the graft
/// point, start times shifted onto the host's clock.
TEST(TraceRecorderTest, GraftOffsetsIdsParentsAndStartTimes) {
  TraceRecorder worker;
  const SpanId run = worker.Begin("run", kNoSpan);
  const SpanId train = worker.Begin("train", run);
  worker.AddAttr(train, "exact", 2);
  worker.End(train);
  worker.End(run);
  const SpanId context = worker.Begin("context", kNoSpan);
  worker.End(context);
  const std::vector<TraceSpan> subtree = worker.Snapshot();

  TraceRecorder host;
  const SpanId root = host.Begin("query", kNoSpan);
  host.Begin("admission", root);
  host.Graft(subtree, root, /*offset_ms=*/100.0);
  const SpanId respond = host.Begin("respond", root);
  EXPECT_EQ(respond, SpanId(5));  // Begin continues past the graft.

  const std::vector<TraceSpan> spans = host.Snapshot();
  ASSERT_EQ(spans.size(), 6u);
  for (size_t i = 0; i < spans.size(); ++i) EXPECT_EQ(spans[i].id, SpanId(i));
  EXPECT_EQ(spans[2].name, "run");
  EXPECT_EQ(spans[2].parent, root);
  EXPECT_EQ(spans[3].name, "train");
  EXPECT_EQ(spans[3].parent, SpanId(2));
  EXPECT_EQ(spans[4].name, "context");
  EXPECT_EQ(spans[4].parent, root);
  ASSERT_EQ(spans[3].attrs.size(), 1u);
  EXPECT_EQ(spans[3].attrs[0].second, 2);
  for (size_t i = 0; i < subtree.size(); ++i) {
    EXPECT_DOUBLE_EQ(spans[i + 2].start_ms, subtree[i].start_ms + 100.0);
    EXPECT_DOUBLE_EQ(spans[i + 2].duration_ms, subtree[i].duration_ms);
  }
  host.Graft({}, root, 0.0);  // An empty subtree is a no-op.
  EXPECT_EQ(host.Snapshot().size(), 6u);
}

/// Dropping leaves keeps ids dense (graftable) and counts the loss on
/// each parent; a span with children is never dropped.
TEST(TraceRecorderTest, DropLeafSpansCountsOnTheParent) {
  TraceRecorder recorder;
  const SpanId run = recorder.Begin("run", kNoSpan);
  const SpanId train = recorder.Begin("train", run);
  recorder.Begin("exact", train);
  recorder.Begin("exact", train);
  recorder.Begin("commit", run);
  const SpanId nested = recorder.Begin("exact", run);  // Has a child.
  recorder.Begin("plan", nested);
  const std::vector<TraceSpan> kept =
      DropLeafSpans(recorder.Snapshot(), "exact");
  ASSERT_EQ(kept.size(), 5u);
  for (size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(kept[i].id, SpanId(i));
  EXPECT_EQ(kept[1].name, "train");
  ASSERT_EQ(kept[1].attrs.size(), 1u);
  EXPECT_EQ(kept[1].attrs[0].first, "exact_dropped");
  EXPECT_EQ(kept[1].attrs[0].second, 2);
  EXPECT_EQ(kept[2].name, "commit");
  EXPECT_EQ(kept[2].parent, run);
  EXPECT_EQ(kept[3].name, "exact");
  EXPECT_EQ(kept[4].name, "plan");
  EXPECT_EQ(kept[4].parent, SpanId(3));
  EXPECT_TRUE(kept[0].attrs.empty());
}

TEST(TraceRingTest, BoundsAndEvictionOrder) {
  TraceRing ring(/*capacity=*/2);
  auto make = [](uint64_t sequence, double total_ms) {
    Trace trace;
    trace.request_id = "q-" + std::to_string(sequence);
    trace.sequence = sequence;
    trace.total_ms = total_ms;
    return trace;
  };
  ring.Add(make(1, 10.0));
  ring.Add(make(2, 30.0));
  ring.Add(make(3, 20.0));
  ring.Add(make(4, 5.0));
  // Recent is FIFO, oldest evicted first.
  const auto recent = ring.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].sequence, 3u);
  EXPECT_EQ(recent[1].sequence, 4u);
  // Slowest is sorted by total time, bounded, fastest evicted.
  const auto slow = ring.Slowest();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].sequence, 2u);
  EXPECT_EQ(slow[1].sequence, 3u);
}

/// The span-tree acceptance gate: a warm traced query returns the full
/// admission → context → run → level/batch(plan/train/commit) → respond
/// taxonomy with complete durations, and a repeat produces the identical
/// (name, parent) sequence — tracing consumes no randomness.
TEST(ServiceTraceTest, WarmTracedQueryReturnsDeterministicSpanTree) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.default_cache_path = TempPath("service_trace.rlog");
  DiscoveryService service(options);
  ASSERT_TRUE(service.Answer(MakeRequest("bi")).ok());  // Cold, untraced.

  DiscoveryRequest traced = MakeRequest("bi");
  traced.trace = true;
  auto first = service.Answer(traced);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->request_id.empty());
  const std::vector<TraceSpan>& spans = first->trace_spans;
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  SpanId run_span = kNoSpan;
  for (const TraceSpan& span : spans) {
    if (span.parent != kNoSpan) {
      ASSERT_GE(span.parent, 0);
      ASSERT_LT(size_t(span.parent), spans.size());
    }
    EXPECT_GE(span.duration_ms, 0.0) << span.name;  // All ended.
    EXPECT_GE(span.start_ms, 0.0);
    if (span.name == "run") run_span = span.id;
  }
  ASSERT_NE(run_span, kNoSpan);
  auto count = [&spans](const char* name) {
    size_t n = 0;
    for (const TraceSpan& s : spans) n += size_t(s.name == name);
    return n;
  };
  EXPECT_EQ(count("admission"), 1u);
  EXPECT_EQ(count("context"), 1u);
  EXPECT_EQ(count("run"), 1u);
  EXPECT_EQ(count("respond"), 1u);
  EXPECT_GE(count("level"), 1u);
  EXPECT_GE(count("batch"), 1u);
  EXPECT_GE(count("plan"), 1u);
  EXPECT_GE(count("train"), 1u);
  EXPECT_GE(count("commit"), 1u);
  EXPECT_GE(count("flush"), 1u);
  EXPECT_EQ(count("exact"), 0u);  // Warm: everything replays.
  for (const TraceSpan& span : spans) {
    if (span.name == "level") {
      EXPECT_EQ(span.parent, run_span);
    }
  }
  // Phase durations stay within the root span that contains them.
  const double total = spans[0].duration_ms;
  for (const char* phase : {"admission", "context", "run", "respond"}) {
    EXPECT_LE(SumSpanMs(spans, phase), total + 0.001) << phase;
  }

  auto second = service.Answer(traced);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->trace_spans.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(second->trace_spans[i].name, spans[i].name) << i;
    EXPECT_EQ(second->trace_spans[i].parent, spans[i].parent) << i;
  }
  EXPECT_NE(second->request_id, first->request_id);
}

/// trace-on ≡ trace-off: the flag only controls the inline echo. Two
/// fresh hosts answer the same fixed-seed query byte-identically whether
/// tracing is requested or not.
TEST(ServiceTraceTest, TracingDoesNotPerturbTheAnswer) {
  DiscoveryResponse off;
  {
    DiscoveryService service(SmallServiceOptions());
    auto response = service.Answer(MakeRequest("bi"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->trace_spans.empty());
    off = std::move(response).value();
  }
  DiscoveryResponse on;
  {
    DiscoveryService service(SmallServiceOptions());
    DiscoveryRequest traced = MakeRequest("bi");
    traced.trace = true;
    auto response = service.Answer(traced);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->trace_spans.empty());
    on = std::move(response).value();
  }
  ExpectSameSkylines(off, on);
  EXPECT_EQ(off.valuated_states, on.valuated_states);
  EXPECT_EQ(off.generated_states, on.generated_states);
  EXPECT_EQ(off.pruned_states, on.pruned_states);
  EXPECT_EQ(off.exact_evals, on.exact_evals);
}

/// The TSan gate: concurrent traced cold queries fan their exact
/// trainings over the shared pool while each worker writes "exact" spans
/// into its query's recorder. Everything completes, ids stay unique, and
/// the retention rings respect their bounds.
TEST(ServiceTraceTest, ConcurrentTracedQueriesAreCleanAndRetained) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.sessions = 4;
  options.trace_ring_capacity = 2;
  DiscoveryService service(options);
  ASSERT_TRUE(service.Preload("T2").ok());
  const std::vector<std::string> variants = {"apx", "nobi", "bi", "div"};
  std::vector<Result<DiscoveryResponse>> responses(
      variants.size(), Result<DiscoveryResponse>(Status::Internal("unset")));
  std::vector<std::thread> clients;
  for (size_t i = 0; i < variants.size(); ++i) {
    clients.emplace_back([&service, &responses, &variants, i] {
      DiscoveryRequest request = MakeRequest(variants[i]);
      request.trace = true;
      responses[i] = service.Answer(request);
    });
  }
  for (std::thread& c : clients) c.join();

  std::set<std::string> ids;
  bool exact_span_seen = false;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->trace_spans.empty());
    EXPECT_FALSE(response->request_id.empty());
    ids.insert(response->request_id);
    for (const TraceSpan& span : response->trace_spans) {
      exact_span_seen = exact_span_seen || span.name == "exact";
    }
  }
  EXPECT_EQ(ids.size(), variants.size());
  EXPECT_TRUE(exact_span_seen);

  EXPECT_LE(service.RecentTraces().size(), 2u);
  EXPECT_GE(service.RecentTraces().size(), 1u);
  EXPECT_LE(service.SlowestTraces().size(), 2u);
  EXPECT_GE(service.SlowestTraces().size(), 1u);

  // Always-on recording feeds the per-phase histograms for every served
  // query, traced or not.
  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  EXPECT_EQ(snapshot.phase_plan_ms.count, variants.size());
  EXPECT_EQ(snapshot.phase_train_ms.count, variants.size());
  EXPECT_EQ(snapshot.phase_respond_ms.count, variants.size());
}

TEST(WireTest, TraceFlagAndRequestIdRoundTrip) {
  DiscoveryRequest request = MakeRequest("bi");
  // Absent unless set, so traced and untraced requests serialize to the
  // same line otherwise (warm keys hash the serialized request).
  EXPECT_EQ(SerializeDiscoveryRequest(request).find("\"trace\""),
            std::string::npos);
  request.trace = true;
  auto decoded = ParseDiscoveryRequest(SerializeDiscoveryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->trace);

  DiscoveryResponse response;
  response.request_id = "q-000042";
  TraceSpan span;
  span.name = "query";
  span.id = 0;
  span.parent = kNoSpan;
  span.start_ms = 0.0;
  span.duration_ms = 1.5;
  span.attrs.emplace_back("level", 2);
  response.trace_spans.push_back(span);
  auto parsed = ParseDiscoveryResponse(SerializeDiscoveryResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->request_id, "q-000042");
  ASSERT_EQ(parsed->trace_spans.size(), 1u);
  EXPECT_EQ(parsed->trace_spans[0].name, "query");
  EXPECT_EQ(parsed->trace_spans[0].parent, kNoSpan);
  EXPECT_DOUBLE_EQ(parsed->trace_spans[0].duration_ms, 1.5);
  ASSERT_EQ(parsed->trace_spans[0].attrs.size(), 1u);
  EXPECT_EQ(parsed->trace_spans[0].attrs[0].first, "level");
  EXPECT_EQ(parsed->trace_spans[0].attrs[0].second, 2);
}

TEST(WireTest, TraceDebugRingIsChromeTraceEventJson) {
  DiscoveryService service(SmallServiceOptions());
  ASSERT_TRUE(service.Answer(MakeRequest("apx")).ok());
  const std::string reply =
      SerializeTraceDebug(service.SlowestTraces(), service.RecentTraces());
  auto doc = JsonValue::Parse(reply);
  ASSERT_TRUE(doc.ok()) << reply;
  EXPECT_TRUE(doc->GetBool("ok", false));
  const JsonValue* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->AsArray().empty());
  // Chrome trace_event grammar: per-trace metadata records plus "X"
  // complete events with non-negative µs timestamps.
  bool meta_seen = false, complete_seen = false;
  for (const JsonValue& event : events->AsArray()) {
    const std::string ph = event.GetString("ph", "");
    if (ph == "M") meta_seen = true;
    if (ph == "X") {
      complete_seen = true;
      EXPECT_GE(event.GetNumber("ts", -1.0), 0.0);
      EXPECT_GE(event.GetNumber("dur", -1.0), 0.0);
    }
  }
  EXPECT_TRUE(meta_seen);
  EXPECT_TRUE(complete_seen);
}

TEST(QosTest, HighPriorityJumpsTheAdmissionQueue) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.sessions = 1;
  options.queue_capacity = 8;
  TenantSpec low;
  low.name = "low";
  low.api_key = "low-key";
  low.priority = 0;
  TenantSpec high;
  high.name = "high";
  high.api_key = "high-key";
  high.priority = 10;
  options.tenants = {low, high};

  std::mutex mu;
  std::vector<std::string> order;
  const auto record = [&mu, &order](const std::string& label) {
    return [&mu, &order, label](Result<DiscoveryResponse> response) {
      EXPECT_TRUE(response.ok()) << label;
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(label);
    };
  };

  {
    DiscoveryService service(options);
    TrainHold hold;
    ASSERT_TRUE(service.Submit(MakeRequest("bi"), record("blocker")).ok());
    ASSERT_TRUE(hold.WaitUntilHeld());

    DiscoveryRequest low_request = MakeRequest("apx");
    low_request.api_key = "low-key";
    DiscoveryRequest high_request = MakeRequest("nobi");
    high_request.api_key = "high-key";
    ASSERT_TRUE(service.Submit(low_request, record("low-1")).ok());
    low_request.variant = "div";
    ASSERT_TRUE(service.Submit(low_request, record("low-2")).ok());
    ASSERT_TRUE(service.Submit(high_request, record("high")).ok());
    hold.Release();
  }  // Destructor drains.

  // The high-priority job was submitted last but runs first; the two
  // low jobs keep FIFO order between themselves.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "blocker");
  EXPECT_EQ(order[1], "high");
  EXPECT_EQ(order[2], "low-1");
  EXPECT_EQ(order[3], "low-2");
}

}  // namespace
}  // namespace modis
