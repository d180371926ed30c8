#include "service/worker.h"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/logging.h"
#include "common/trace.h"
#include "service/wire.h"

namespace modis {

namespace {

// The span-name triggers of the mid_train / pre_commit crash points and
// of the hold point. Process-global because the span observer is: a
// worker process arms each at most once for its whole life, so plain
// pointers are enough.
const char* g_crash_span = nullptr;
const char* g_hold_span = nullptr;
std::atomic<bool> g_hold_armed{false};
volatile sig_atomic_t g_hold_released = 0;

void ReleaseHold(int) { g_hold_released = 1; }

void OnSpan(const char* name) {
  if (g_crash_span != nullptr && strcmp(name, g_crash_span) == 0) {
    ::kill(::getpid(), SIGKILL);
  }
  if (g_hold_span != nullptr && strcmp(name, g_hold_span) == 0 &&
      g_hold_armed.exchange(false)) {
    MODIS_LOG(WARN, "hold")
        .Tag("pid", int64_t(::getpid()))
        << "holding at span " << name << " until SIGUSR1 or kill";
    while (g_hold_released == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    MODIS_LOG(INFO, "hold") << "released from span " << name;
  }
}

void SelfKill() { ::kill(::getpid(), SIGKILL); }

/// One ring job: parse -> Answer -> serialize. Never throws and always
/// yields a document — a malformed request or a failed query becomes its
/// typed error document, which is an answered job, not a failed one.
std::string AnswerJob(DiscoveryService* service, const std::string& job) {
  auto request = ParseDiscoveryRequest(job);
  if (!request.ok()) return SerializeDiscoveryError(request.status());
  auto response = service->Answer(request.value());
  if (!response.ok()) return SerializeDiscoveryError(response.status());
  return SerializeDiscoveryResponse(response.value());
}

}  // namespace

void ArmTestHold(const std::string& span) {
  static std::string hold_span;  // Outlives every observer call.
  hold_span = span;
  g_hold_span = hold_span.c_str();
  g_hold_armed = true;
  struct sigaction release = {};
  release.sa_handler = &ReleaseHold;
  ::sigaction(SIGUSR1, &release, nullptr);
  SetGlobalSpanObserver(&OnSpan);
}

Status RunWorkerLoop(DiscoveryService* service, const WorkerOptions& options) {
  std::unique_ptr<ShmRing> ring;
  MODIS_RETURN_IF_ERROR(ShmRing::Attach(options.ring_path, &ring));
  if (options.worker_index >= ShmRing::kMaxWorkers) {
    return Status::InvalidArgument("worker index out of range");
  }
  if (options.crash_at == "mid_train") {
    g_crash_span = "train";
    SetGlobalSpanObserver(&OnSpan);
  } else if (options.crash_at == "pre_commit") {
    g_crash_span = "commit";
    SetGlobalSpanObserver(&OnSpan);
  } else if (options.crash_at == "mid_response") {
    ring->SetCompleteHookForTest(&SelfKill);
  } else if (!options.crash_at.empty() && options.crash_at != "claimed") {
    return Status::InvalidArgument("unknown crash_at point: " +
                                   options.crash_at);
  }
  if (!options.hold_at.empty()) ArmTestHold(options.hold_at);
  MODIS_LOG(INFO, "worker") << "worker " << options.worker_index
                            << " draining ring " << options.ring_path;
  for (;;) {
    ShmRing::Job job;
    const Status next =
        ring->NextJob(options.worker_index, options.poll_ms, &job);
    if (next.code() == StatusCode::kNotFound) continue;  // Poll tick.
    if (!next.ok()) {
      // Stop was requested (FailedPrecondition) or the ring is gone.
      return next.code() == StatusCode::kFailedPrecondition ? Status::OK()
                                                            : next;
    }
    if (options.crash_at == "claimed") SelfKill();
    const Status completed =
        ring->Complete(job, Status::OK(), AnswerJob(service, job.request));
    if (!completed.ok() &&
        completed.code() != StatusCode::kFailedPrecondition) {
      MODIS_LOG(WARN, "worker")
          << "worker " << options.worker_index
          << " could not publish job " << job.ticket << ": "
          << completed.ToString();
    }
  }
}

Status WorkerPool::Start(const Options& options,
                         std::unique_ptr<WorkerPool>* out) {
  if (options.workers == 0 || options.workers > ShmRing::kMaxWorkers) {
    return Status::InvalidArgument("worker pool needs 1..64 workers");
  }
  if (!options.spawn) {
    return Status::InvalidArgument("worker pool needs a spawn function");
  }
  auto pool = std::unique_ptr<WorkerPool>(new WorkerPool());
  pool->options_ = options;
  MODIS_RETURN_IF_ERROR(
      ShmRing::Create(options.ring_path, options.ring, &pool->ring_));
  pool->slots_.resize(options.workers);
  const auto now = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < options.workers; ++i) {
    Slot& slot = pool->slots_[i];
    slot.pid = options.spawn(i);
    slot.alive = slot.pid > 0;
    slot.spawned_at = now;
    slot.backoff_ms = options.respawn_ms;
    if (!slot.alive) slot.respawn_at = now;
  }
  pool->supervisor_ = std::thread(&WorkerPool::SupervisorLoop, pool.get());
  *out = std::move(pool);
  return Status::OK();
}

WorkerPool::~WorkerPool() { Stop(); }

void WorkerPool::SupervisorLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      const auto now = std::chrono::steady_clock::now();
      for (uint32_t i = 0; i < slots_.size(); ++i) {
        Slot& slot = slots_[i];
        if (slot.alive) {
          int wstatus = 0;
          const pid_t got = ::waitpid(slot.pid, &wstatus, WNOHANG);
          if (got != slot.pid) continue;
          // The worker died. Stale-claim recovery first (generation
          // bump + reclaim), so its orphaned job is requeued before any
          // respawn — no accepted query waits for the backoff.
          slot.alive = false;
          restarts_total_++;
          slot.restarts++;
          ring_->BumpWorkerGeneration(i);
          const uint32_t reclaimed = ring_->ReclaimStale();
          const bool stable =
              now - slot.spawned_at >
              std::chrono::milliseconds(options_.stable_ms);
          slot.backoff_ms =
              stable ? options_.respawn_ms
                     : std::min(slot.backoff_ms * 2, options_.respawn_max_ms);
          slot.respawn_at = now + std::chrono::milliseconds(slot.backoff_ms);
          MODIS_LOG(WARN, "worker")
              << "worker " << i << " (pid " << slot.pid << ") exited"
              << (WIFSIGNALED(wstatus)
                      ? " on signal " + std::to_string(WTERMSIG(wstatus))
                      : " with code " +
                            std::to_string(WEXITSTATUS(wstatus)))
              << "; reclaimed " << reclaimed << " jobs, respawn in "
              << slot.backoff_ms << "ms";
        } else if (now >= slot.respawn_at) {
          slot.pid = options_.spawn(i);
          slot.alive = slot.pid > 0;
          slot.spawned_at = now;
          if (!slot.alive) {
            slot.respawn_at = now + std::chrono::milliseconds(slot.backoff_ms);
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void WorkerPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (ring_ != nullptr) ring_->RequestStop();
  if (supervisor_.joinable()) supervisor_.join();
  // Grace period: workers poll the stop flag at poll_ms granularity and
  // exit on their own; SIGTERM hurries stragglers, SIGKILL ends them.
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (!slot.alive) continue;
    ::kill(slot.pid, SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  for (Slot& slot : slots_) {
    if (!slot.alive) continue;
    for (;;) {
      int wstatus = 0;
      const pid_t got = ::waitpid(slot.pid, &wstatus, WNOHANG);
      if (got == slot.pid || (got < 0 && errno == ECHILD)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, &wstatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    slot.alive = false;
  }
}

Status WorkerPool::Submit(const std::string& request_line,
                          std::string* response_line) {
  uint64_t ticket = 0;
  MODIS_RETURN_IF_ERROR(ring_->Install(request_line, &ticket));
  return ring_->Await(ticket, options_.job_timeout_ms, response_line);
}

std::vector<WorkerPool::WorkerState> WorkerPool::SnapshotWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WorkerState> out;
  out.reserve(slots_.size());
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    WorkerState state;
    state.index = i;
    state.pid = slots_[i].pid;
    state.alive = slots_[i].alive;
    state.restarts = slots_[i].restarts;
    out.push_back(state);
  }
  return out;
}

uint64_t WorkerPool::restarts_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_total_;
}

void WorkerPool::FillMetrics(MetricsSnapshot* snapshot) const {
  const ShmRing::Stats ring = ring_->SnapshotStats();
  snapshot->ring_installed = ring.installed;
  snapshot->ring_shed = ring.shed;
  snapshot->ring_requeued = ring.requeued;
  snapshot->ring_poisoned = ring.poisoned;
  snapshot->ring_owner_deaths = ring.owner_deaths;
  snapshot->ring_depth = ring.ready;
  snapshot->ring_inflight = ring.claimed;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot->worker_processes = slots_.size();
  snapshot->worker_restarts = restarts_total_;
  snapshot->workers.clear();
  snapshot->workers.reserve(slots_.size());
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    WorkerMetricsSnapshot worker;
    worker.index = i;
    worker.alive = slots_[i].alive ? 1 : 0;
    worker.restarts = slots_[i].restarts;
    worker.jobs_claimed = ring.claimed_by[i];
    worker.jobs_completed = ring.completed_by[i];
    worker.jobs_requeued = ring.requeued_by[i];
    snapshot->workers.push_back(worker);
  }
}

}  // namespace modis
