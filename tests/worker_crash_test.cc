/// Kill-injection battery over the multi-process host
/// (docs/MULTIPROCESS.md): real worker processes draining a real
/// shared-memory job ring, SIGKILLed at every lifecycle stage —
/// right after claiming ("claimed"), inside the training phase
/// ("mid_train"), at the cache commit boundary ("pre_commit"), and
/// inside Complete() while holding the ring mutex ("mid_response", the
/// robust-mutex owner-death case). After every kill the battery
/// asserts the crash-isolation contract:
///
///   * no accepted query is lost — every Execute() resolves;
///   * no query is answered twice — ring completions match submissions;
///   * the skyline is byte-identical to an undisturbed in-process run;
///   * the cache file reloads clean after the kill;
///   * the ring never wedges (every wait here is bounded).
///
/// Worker processes are this very binary re-exec'ed in the worker role
/// (SpawnWorkerProcess → RunWorkerMain, which is why this suite owns
/// main()); the kill points are armed through WorkerOptions::crash_at on
/// the FIRST incarnation of worker 0 only — its respawn runs disarmed,
/// exactly like a real crash that does not reproduce.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/discovery_service.h"
#include "service/shm_ring.h"
#include "service/wire.h"
#include "service/worker.h"
#include "storage/persistent_record_cache.h"

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

/// The canonical deterministic query (same shape as service_test.cc):
/// T2 at a small budget, wall-clock measures excluded.
DiscoveryRequest MakeRequest() {
  DiscoveryRequest request;
  request.task = "T2";
  request.variant = "bi";
  request.epsilon = 0.25;
  request.budget = 40;
  request.maxl = 2;
  request.measures = {"f1", "acc", "fisher", "mi"};
  return request;
}

/// The execution settings of every worker (and of the in-process
/// reference).
DiscoveryService::Options WorkerServiceOptions(const std::string& cache) {
  DiscoveryService::Options options;
  options.sessions = 1;
  options.valuation_threads = 2;
  options.task_row_scale = kRowScale;
  options.default_cache_path = cache;
  return options;
}

// ---------------------------------------------------------- harness

/// One coordinator-side pool whose workers are this binary re-exec'ed.
/// `crash_at` arms the kill point, `hold_at` the hold point, on worker
/// 0's first incarnation only.
class PoolHarness {
 public:
  Status Start(const std::string& tag, uint32_t workers,
               const std::string& crash_at, const std::string& hold_at = "") {
    ring_path_ = TempPath("crash_ring_" + tag + ".shm");
    cache_path_ = TempPath("crash_cache_" + tag + ".bin");
    crash_at_ = crash_at;
    hold_at_ = hold_at;
    pids_.assign(workers, 0);

    WorkerPool::Options options;
    options.workers = workers;
    options.ring_path = ring_path_;
    options.respawn_ms = 50;  // Keep the battery fast.
    options.stable_ms = 0;    // A kill-injected death is not "unstable".
    options.spawn = [this](uint32_t worker) { return Spawn(worker); };
    return WorkerPool::Start(options, &pool_);
  }

  /// Runs `request` through the ring. Every wait is bounded: a wedged
  /// ring fails the test instead of hanging it.
  Result<DiscoveryResponse> Query(const DiscoveryRequest& request) {
    return pool_->Execute(request, /*trace=*/nullptr, kNoSpan);
  }

  WorkerPool* pool() { return pool_.get(); }
  const std::string& cache_path() const { return cache_path_; }

  /// While deferred, spawning worker 1 fails (the supervisor retries
  /// after its backoff), so worker 0 is the only one that can claim.
  void DeferWorker1(bool deferred) {
    std::lock_guard<std::mutex> lock(mu_);
    defer_worker1_ = deferred;
  }

  /// Bounded wait until `worker` has claimed at least `jobs` jobs.
  bool WaitForClaims(uint32_t worker, uint64_t jobs) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (pool_->ring()->SnapshotStats().claimed_by[worker] < jobs) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  /// Releases `worker` from its hold point.
  void Release(uint32_t worker) {
    std::lock_guard<std::mutex> lock(mu_);
    ::kill(pids_[worker], SIGUSR1);
  }

  /// Supervisor respawns so far, as GET /metrics reports them.
  uint64_t Restarts() const {
    MetricsSnapshot snapshot;
    pool_->FillMetrics(&snapshot);
    return snapshot.worker_restarts;
  }

  void Stop() {
    if (pool_) pool_->Stop();
  }

  ~PoolHarness() { Stop(); }

 private:
  pid_t Spawn(uint32_t worker) {
    WorkerOptions options;
    options.ring_path = ring_path_;
    options.worker_index = worker;
    options.service = WorkerServiceOptions(cache_path_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (worker == 1 && defer_worker1_) return -1;
      if (worker == 0 && pids_[worker] == 0) {
        options.crash_at = crash_at_;
        options.hold_at = hold_at_;
      }
    }
    const pid_t pid = SpawnWorkerProcess(options);
    std::lock_guard<std::mutex> lock(mu_);
    pids_[worker] = pid;
    return pid;
  }

  std::unique_ptr<WorkerPool> pool_;
  std::string ring_path_;
  std::string cache_path_;
  std::string crash_at_;
  std::string hold_at_;
  std::mutex mu_;
  bool defer_worker1_ = false;
  std::vector<pid_t> pids_;  // Latest incarnation; 0 = never spawned.
};

// -------------------------------------------------------- assertions

void ExpectSameSkylines(const DiscoveryResponse& a,
                        const DiscoveryResponse& b) {
  ASSERT_EQ(a.skyline.size(), b.skyline.size());
  ASSERT_FALSE(a.skyline.empty());
  for (size_t i = 0; i < a.skyline.size(); ++i) {
    EXPECT_EQ(a.skyline[i].signature, b.skyline[i].signature);
    EXPECT_EQ(a.skyline[i].level, b.skyline[i].level);
    EXPECT_EQ(a.skyline[i].rows, b.skyline[i].rows);
    EXPECT_EQ(a.skyline[i].cols, b.skyline[i].cols);
    ASSERT_EQ(a.skyline[i].raw.size(), b.skyline[i].raw.size());
    for (size_t j = 0; j < a.skyline[i].raw.size(); ++j) {
      EXPECT_DOUBLE_EQ(a.skyline[i].raw[j], b.skyline[i].raw[j]);
      EXPECT_DOUBLE_EQ(a.skyline[i].normalized[j],
                       b.skyline[i].normalized[j]);
    }
  }
}

/// The undisturbed in-process reference: a plain DiscoveryService over
/// its own cache file, computed once and memoized.
const DiscoveryResponse& ReferenceResponse() {
  static const DiscoveryResponse memo = [] {
    DiscoveryService service(
        WorkerServiceOptions(TempPath("crash_reference.bin")));
    auto response = service.Answer(MakeRequest());
    if (!response.ok()) {
      ADD_FAILURE() << "reference run failed: "
                    << response.status().ToString();
      return DiscoveryResponse();
    }
    return std::move(response).value();
  }();
  return memo;
}

/// After the pool stopped, the cache file must reload clean through the
/// normal exclusive open — a kill mid-publish never leaves a torn file.
void ExpectCacheReloadsClean(const std::string& path) {
  if (!fs::exists(path)) return;  // A pre-train kill may leave no file.
  auto reopened = PersistentRecordCache::Open(path, CacheMode::kRead,
                                              /*fingerprint=*/0);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
}

// ----------------------------------------------------------- battery

struct CrashCase {
  const char* stage;
  bool owner_death;  // mid_response dies holding the ring mutex.
};

class WorkerCrashTest : public ::testing::TestWithParam<CrashCase> {};

/// THE battery: arm one kill point, run the canonical query into it,
/// and prove the pool heals — same answer, nothing lost, nothing
/// doubled, cache intact, ring live.
TEST_P(WorkerCrashTest, KilledWorkerNeverLosesOrForksAQuery) {
  const CrashCase crash = GetParam();

  PoolHarness harness;
  // One worker: the armed incarnation must be the one that claims the
  // query, crashes at the injected stage, and is respawned disarmed.
  ASSERT_TRUE(harness.Start(crash.stage, /*workers=*/1, crash.stage).ok());

  // The crash victim. Execute() resolves even though the first claim
  // dies: the supervisor requeues the job and the respawned worker
  // answers it. "No accepted query lost."
  auto crashed = harness.Query(MakeRequest());
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  ExpectSameSkylines(crashed.value(), ReferenceResponse());

  // A follow-up query through the healed pool; warm path this time.
  auto warm = harness.Query(MakeRequest());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectSameSkylines(warm.value(), ReferenceResponse());

  // The kill really happened and was really recovered.
  EXPECT_GE(harness.Restarts(), 1u);
  const ShmRing::Stats stats = harness.pool()->ring()->SnapshotStats();
  EXPECT_EQ(stats.installed, 2u);
  EXPECT_EQ(stats.completed, 2u);  // Exactly one completion per query.
  EXPECT_GE(stats.requeued, 1u);
  EXPECT_EQ(stats.poisoned, 0u);
  EXPECT_EQ(stats.ready, 0u);
  EXPECT_EQ(stats.claimed, 0u);
  if (crash.owner_death) {
    EXPECT_GE(stats.owner_deaths, 1u);
  }

  harness.Stop();
  ExpectCacheReloadsClean(harness.cache_path());
}

INSTANTIATE_TEST_SUITE_P(
    Stages, WorkerCrashTest,
    ::testing::Values(CrashCase{"claimed", false},
                      CrashCase{"mid_train", false},
                      CrashCase{"pre_commit", false},
                      CrashCase{"mid_response", true}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      return std::string(info.param.stage);
    });

// --------------------------------------------- undisturbed pool runs

/// Sanity floor under the battery: with no kill armed, the pool
/// answers exactly like the in-process service, cold and warm.
TEST(WorkerPoolTest, UndisturbedPoolMatchesInProcessAnswers) {
  PoolHarness harness;
  ASSERT_TRUE(harness.Start("plain", /*workers=*/2, /*crash_at=*/"").ok());
  auto cold = harness.Query(MakeRequest());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectSameSkylines(cold.value(), ReferenceResponse());
  auto warm = harness.Query(MakeRequest());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectSameSkylines(warm.value(), ReferenceResponse());

  EXPECT_EQ(harness.Restarts(), 0u);
  const ShmRing::Stats stats = harness.pool()->ring()->SnapshotStats();
  EXPECT_EQ(stats.installed, 2u);
  EXPECT_EQ(stats.completed, 2u);
  harness.Stop();
  ExpectCacheReloadsClean(harness.cache_path());
}

/// The positive cross-process warm contract (the flip side of
/// storage_test's raw-open fail-fast): while the pool is LIVE, a query
/// lands on the shared cache WARM — zero new trainings — when a
/// different worker process answers it than the one that trained.
/// Placement is pinned, not hoped for: worker 0 alone claims the first
/// query and parks before it touches the cache; worker 1 then answers
/// the same query cold; released, worker 0 must serve it warm. The
/// ring's per-worker completion counts prove who answered which.
TEST(WorkerPoolTest, SecondQueryThroughLivePoolIsWarm) {
  PoolHarness harness;
  harness.DeferWorker1(true);
  ASSERT_TRUE(harness
                  .Start("warmup", /*workers=*/2, /*crash_at=*/"",
                         /*hold_at=*/"context")
                  .ok());
  auto held = std::async(std::launch::async,
                         [&harness] { return harness.Query(MakeRequest()); });
  ASSERT_TRUE(harness.WaitForClaims(0, 1)) << "worker 0 never claimed";
  harness.DeferWorker1(false);

  // Worker 0 holds its claim, so only worker 1 can answer this one.
  auto cold = harness.Query(MakeRequest());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(harness.pool()->ring()->SnapshotStats().completed_by[1], 1u);
  EXPECT_EQ(harness.pool()->ring()->SnapshotStats().completed_by[0], 0u);
  EXPECT_GT(cold.value().exact_evals, 0u);
  ExpectSameSkylines(cold.value(), ReferenceResponse());

  harness.Release(0);
  auto warm = held.get();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(harness.pool()->ring()->SnapshotStats().completed_by[0], 1u);
  EXPECT_EQ(warm.value().exact_evals, 0u)
      << "cross-process reader was cold";
  ExpectSameSkylines(warm.value(), ReferenceResponse());
  harness.Stop();
}

}  // namespace
}  // namespace modis

int main(int argc, char** argv) {
  // Worker children re-exec this binary in the worker role.
  if (argc > 1 && std::strcmp(argv[1], "--worker-attach") == 0) {
    return modis::RunWorkerMain(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
