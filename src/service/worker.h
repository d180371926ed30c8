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
#include "common/trace.h"
#include "service/discovery_service.h"
#include "service/metrics.h"
#include "service/shm_ring.h"

namespace modis {

/// Options of one worker process (docs/MULTIPROCESS.md). A worker only
/// executes: admission, request ids, QoS, and traces are the
/// coordinator's.
struct WorkerOptions {
  /// Segment file of the coordinator's job ring.
  std::string ring_path;
  /// This worker's slot in the pool (< ShmRing::kMaxWorkers).
  uint32_t worker_index = 0;
  /// Kill-injection point for the crash battery: "" (never), "claimed"
  /// (right after NextJob), "mid_train" / "pre_commit" (when the engine
  /// opens its "train" / "commit" span, via the global span observer),
  /// or "mid_response" (inside Complete() while holding the ring mutex
  /// — the robust-mutex owner-death case).
  std::string crash_at;
  /// Test-only hold point: "" (never), or a span name armed through
  /// ArmTestHold().
  std::string hold_at;
  /// Execution settings of the worker's session-less DiscoveryService:
  /// default cache file, mode, and byte budget, context caps, row scale,
  /// valuation threads. The admission settings (sessions, queue,
  /// tenants, trace retention) stay with the coordinator.
  DiscoveryService::Options service;
  /// Comma-separated tasks whose contexts are built before draining.
  std::string tasks;
};

/// Test-only hold point of a host process, in-process and worker mode
/// alike: the first time any query of this process opens span `span`
/// ("train", "context", ...), it logs "holding at span NAME" and parks
/// there until the process receives SIGUSR1 or is killed — a
/// deterministic "mid-query" for kill, drain, and placement tests, where
/// a sleep would race the query. Installs the SIGUSR1 handler and the
/// process-global span observer; call once, before serving.
void ArmTestHold(const std::string& span);

/// The worker-role entry of every binary that spawns workers: when
/// argv[1] is `--worker-attach`, main() returns RunWorkerMain(argc,
/// argv). Parses the command line SpawnWorkerProcess() builds, applies
/// the forwarded log settings, builds an execution-only DiscoveryService
/// (no sessions; caches opened shared, so the pool serves one file),
/// preloads the tasks, and drains the ring until stop is requested:
/// claim a job, run DiscoveryService::Execute under a fresh
/// TraceRecorder, and publish the response with its span tree (a bad
/// request or a failed query is published as its typed error document).
/// A span tree never fails an answer: when the document would overflow
/// the slot buffer, the per-training "exact" spans are dropped first
/// (counted on their parent as "exact_dropped"), then the whole tree;
/// the skyline and stats always travel. Returns the process exit code:
/// 0 on a clean stop, 1 on a ring error, 2 on a bad flag (reported
/// naming the flag).
int RunWorkerMain(int argc, char** argv);

/// fork + exec of this very binary (/proc/self/exe) in the worker role
/// for `options`, forwarding this process's log level and format. Never
/// a bare fork: the coordinator is multi-threaded by the time a respawn
/// happens. Returns the child's pid, or -1.
pid_t SpawnWorkerProcess(const WorkerOptions& options);

/// Coordinator-side supervisor of N worker processes over one job ring:
/// creates the segment, spawns the workers through a caller-provided
/// function, reaps them (waitpid), respawns with backoff, and on every
/// death advances the dead worker's liveness generation and reclaims its
/// orphaned jobs (requeue or poison — see ShmRing). The ring has 2 ×
/// workers slots: one live job per coordinator session (one session per
/// worker) plus one cancelled-but-still-claimed straggler per worker.
class WorkerPool {
 public:
  /// Spawns the worker process for slot `worker`; returns its pid, or
  /// -1 on failure (retried after the respawn backoff). Implementations
  /// call SpawnWorkerProcess().
  using SpawnFn = std::function<pid_t(uint32_t worker)>;

  struct Options {
    uint32_t workers = 1;
    std::string ring_path;
    /// Bytes per ring transfer buffer (ShmRing::Options::buffer_bytes):
    /// bounds one request and one response document.
    uint32_t buffer_bytes = 1u << 20;
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

  static Status Start(const Options& options, std::unique_ptr<WorkerPool>* out);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The out-of-process executor: serializes `request`, installs it into
  /// the ring, awaits the worker's response, and grafts the worker's
  /// span subtree under `root` of `trace` (skipped when `trace` is
  /// null). The typed ring errors pass through: ResourceExhausted when
  /// the ring is full, OutOfRange for an oversized document, Internal
  /// for a poisoned or timed-out job; a worker's error document decodes
  /// into its typed Status.
  Result<DiscoveryResponse> Execute(const DiscoveryRequest& request,
                                    TraceRecorder* trace, SpanId root);

  /// Stops the ring, terminates the workers (SIGTERM, then SIGKILL
  /// after a grace period), joins the supervisor, and removes the
  /// segment file. Idempotent.
  void Stop();

  uint32_t workers() const { return options_.workers; }
  ShmRing* ring() { return ring_.get(); }

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
