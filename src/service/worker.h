#ifndef MODIS_SERVICE_WORKER_H_
#define MODIS_SERVICE_WORKER_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/discovery_service.h"
#include "service/metrics.h"
#include "service/shm_ring.h"

namespace modis {

/// Options of one worker process's drain loop (docs/MULTIPROCESS.md).
struct WorkerOptions {
  /// Segment file of the coordinator's job ring.
  std::string ring_path;
  /// This worker's slot in the pool (< ShmRing::kMaxWorkers).
  uint32_t worker_index = 0;
  /// NextJob poll granularity; bounds shutdown latency.
  int poll_ms = 200;
  /// Kill-injection point for the crash battery: "" (never), "claimed"
  /// (right after NextJob), "mid_train" / "pre_commit" (when the engine
  /// opens its "train" / "commit" span, via the global span observer),
  /// or "mid_response" (inside Complete() while holding the ring mutex
  /// — the robust-mutex owner-death case).
  std::string crash_at;
  /// Test-only hold point: "" (never), or a span name armed through
  /// ArmTestHold().
  std::string hold_at;
};

/// Test-only hold point of a host process, in-process and worker mode
/// alike: the first time any query of this process opens span `span`
/// ("train", "context", ...), it logs "holding at span NAME" and parks
/// there until the process receives SIGUSR1 or is killed — a
/// deterministic "mid-query" for kill, drain, and placement tests, where
/// a sleep would race the query. Installs the SIGUSR1 handler and the
/// process-global span observer; call once, before serving.
void ArmTestHold(const std::string& span);

/// Drains the ring until stop is requested: claim a job, answer it
/// (parse -> DiscoveryService::Answer -> serialize; a bad request or a
/// failed query is answered with its typed error document), publish the
/// response. Runs in a worker process whose DiscoveryService
/// was built with Options::shared_cache so the pool shares one cache
/// file. Returns OK on a clean stop.
Status RunWorkerLoop(DiscoveryService* service, const WorkerOptions& options);

/// Coordinator-side supervisor of N worker processes over one job ring:
/// creates the segment, spawns the workers through a caller-provided
/// exec function, reaps them (waitpid), respawns with backoff, and on
/// every death advances the dead worker's liveness generation and
/// reclaims its orphaned jobs (requeue or poison — see ShmRing).
class WorkerPool {
 public:
  /// Spawns the worker process for slot `worker`; returns its pid, or
  /// -1 on failure (retried after the respawn backoff). Implementations
  /// fork+exec the current binary with `--worker-attach` flags — never
  /// a bare fork: the coordinator is multi-threaded by the time a
  /// respawn happens.
  using SpawnFn = std::function<pid_t(uint32_t worker)>;

  struct Options {
    uint32_t workers = 1;
    std::string ring_path;
    ShmRing::Options ring;
    /// Respawn backoff: base delay, doubled while a worker keeps dying
    /// within `stable_ms` of its spawn, capped at `respawn_max_ms`.
    int respawn_ms = 200;
    int respawn_max_ms = 5000;
    int stable_ms = 5000;
    /// Await bound per job; generous — poison (max_attempts crashed
    /// claims) resolves a stuck job well before this fires.
    int job_timeout_ms = 120000;
    SpawnFn spawn;
  };

  struct WorkerState {
    uint32_t index = 0;
    pid_t pid = -1;
    bool alive = false;
    uint64_t restarts = 0;
  };

  static Status Start(const Options& options, std::unique_ptr<WorkerPool>* out);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Installs one request line and blocks for its response line. The
  /// typed ring errors pass through: ResourceExhausted when the ring is
  /// full, OutOfRange for an oversized line, Internal for a poisoned
  /// job.
  Status Submit(const std::string& request_line, std::string* response_line);

  /// Stops the ring, terminates the workers (SIGTERM, then SIGKILL
  /// after a grace period), joins the supervisor. Idempotent.
  void Stop();

  ShmRing* ring() { return ring_.get(); }
  std::vector<WorkerState> SnapshotWorkers() const;
  uint64_t restarts_total() const;

  /// Overlays the pool + ring series onto a service metrics snapshot
  /// (worker_*, ring_*, and the per-worker `workers` array).
  void FillMetrics(MetricsSnapshot* snapshot) const;

 private:
  WorkerPool() = default;
  void SupervisorLoop();

  Options options_;
  std::unique_ptr<ShmRing> ring_;
  std::thread supervisor_;
  mutable std::mutex mu_;
  bool stopping_ = false;
  uint64_t restarts_total_ = 0;
  struct Slot {
    pid_t pid = -1;
    bool alive = false;
    uint64_t restarts = 0;
    int backoff_ms = 0;
    std::chrono::steady_clock::time_point spawned_at;
    std::chrono::steady_clock::time_point respawn_at;
  };
  std::vector<Slot> slots_;
};

}  // namespace modis

#endif  // MODIS_SERVICE_WORKER_H_
