/// bench_serving — QPS and latency of the long-lived discovery service
/// versus cold process-per-query execution.
///
/// Protocol (see docs/SERVING.md and bench/baselines/README.md):
///   1. `cold_process`: each query pays the full batch-program cost —
///      lake generation, universe construction, and every exact training
///      (DiscoveryService::AnswerDetached, no cache) — the life of a
///      MODis user before the serving subsystem.
///   2. `warm_service`: a DiscoveryService with a shared pool and one
///      shared record-cache file answers the same query mix after one
///      warm-up pass; repeated queries replay recorded trainings (the
///      bench asserts 0 exact trainings during the measured phase).
///   3. The warm phase repeats with 1, 2, and 4 concurrent clients
///      sharing the one locked cache file.
///   4. `qos_overload`: an open-loop flood at ~2x the measured capacity
///      against a QoS-enabled service (gold priority 10, bronze priority
///      0, small admission queue). Gates: every shed is 429-class, some
///      bronze work is shed, and gold's contended p99 stays within 3x
///      its uncontended p99 (docs/SERVING.md §7).
///
/// Usage: bench_serving [--json] [--queries N] [--task T1] [--scale S]
///                      [--threads N]
///
/// The same warm phases through a running modis_server over HTTP, in
/// process and through the multi-process worker pool (`pool_read_write`),
/// are bench/e2e's job (bench/e2e/README.md).
///
/// --json emits one serving-metrics record per (mode, clients) pair:
///   {"bench":"serving","mode":..,"clients":..,"queries":..,"qps":..,
///    "p50_ms":..,"p99_ms":..,"exact_evals":..,"persistent_hits":..,
///    "speedup_p50_vs_cold":..[,"tenant":..,"offered":..,"shed":..]}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/discovery_service.h"
#include "service/http.h"
#include "service/json.h"
#include "service/qos.h"
#include "service/wire.h"

using namespace modis;

namespace {

struct Args {
  bool json = false;
  size_t queries = 12;   // Measured queries per phase.
  std::string task = "T1";
  double scale = 0.4;
  size_t threads = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      args.json = true;
    } else if (arg == "--queries") {
      args.queries = std::stoul(value());
    } else if (arg == "--task") {
      args.task = value();
    } else if (arg == "--scale") {
      args.scale = std::stod(value());
    } else if (arg == "--threads") {
      args.threads = std::stoul(value());
    } else {
      std::fprintf(stderr,
                   "unknown argument %s (supported: --json, --queries N, "
                   "--task T, --scale S, --threads N)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// The query mix: distinct (variant, epsilon) combinations so the warm
/// cache holds more than one fingerprint-scoped working set. Wall-clock
/// measures are excluded so repeated answers are bit-reproducible.
std::vector<DiscoveryRequest> QueryMix(const std::string& task) {
  std::vector<DiscoveryRequest> mix;
  for (const char* variant : {"bi", "apx", "div"}) {
    for (double epsilon : {0.25, 0.35}) {
      DiscoveryRequest request;
      request.task = task;
      request.variant = variant;
      request.epsilon = epsilon;
      request.budget = 60;
      request.maxl = 3;
      request.measures = {"acc", "fisher", "mi"};
      mix.push_back(std::move(request));
    }
  }
  return mix;
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double rank = p * double(sorted_ms.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - double(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

struct PhaseResult {
  std::string mode;
  std::string tenant;     // QoS overload phases only; else empty.
  size_t clients = 1;
  size_t queries = 0;
  size_t offered = 0;     // Open-loop phases: submissions attempted.
  size_t shed = 0;        // Open-loop phases: 429-class rejections.
  double wall_seconds = 0.0;
  std::vector<double> latencies_ms;
  size_t exact_evals = 0;
  size_t persistent_hits = 0;
  size_t fused_hits = 0;

  double Qps() const {
    return wall_seconds <= 0.0 ? 0.0 : double(queries) / wall_seconds;
  }
};

void PrintHuman(const PhaseResult& r, double cold_p50) {
  const double p50 = Percentile(r.latencies_ms, 0.50);
  const double p99 = Percentile(r.latencies_ms, 0.99);
  if (!r.tenant.empty()) {
    std::printf("%-14s tenant=%-6s offered=%3zu  served=%3zu  shed=%3zu  "
                "p50=%9.1f ms  p99=%9.1f ms\n",
                r.mode.c_str(), r.tenant.c_str(), r.offered, r.queries,
                r.shed, p50, p99);
    return;
  }
  std::printf("%-14s clients=%zu  queries=%3zu  qps=%7.2f  p50=%9.1f ms  "
              "p99=%9.1f ms  exact=%4zu  replayed=%4zu  fused=%4zu",
              r.mode.c_str(), r.clients, r.queries, r.Qps(), p50, p99,
              r.exact_evals, r.persistent_hits, r.fused_hits);
  if (cold_p50 > 0.0 && r.mode != "cold_process") {
    std::printf("  speedup_p50=%.1fx", cold_p50 / std::max(p50, 1e-9));
  }
  std::printf("\n");
}

void PrintJson(const std::vector<PhaseResult>& phases, double cold_p50) {
  std::printf("[\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& r = phases[i];
    const double p50 = Percentile(r.latencies_ms, 0.50);
    const double speedup =
        r.mode == "cold_process" || cold_p50 <= 0.0
            ? 1.0
            : cold_p50 / std::max(p50, 1e-9);
    JsonValue::Object doc = {
        {"bench", "serving"},
        {"mode", r.mode},
        {"clients", r.clients},
        {"queries", r.queries},
        {"qps", r.Qps()},
        {"p50_ms", p50},
        {"p99_ms", Percentile(r.latencies_ms, 0.99)},
        {"exact_evals", r.exact_evals},
        {"persistent_hits", r.persistent_hits},
        {"fused_hits", r.fused_hits},
        {"speedup_p50_vs_cold", speedup},
    };
    if (!r.tenant.empty()) {
      doc.emplace_back("tenant", r.tenant);
      doc.emplace_back("offered", r.offered);
      doc.emplace_back("shed", r.shed);
    }
    std::printf("  %s%s\n", JsonValue(std::move(doc)).Dump().c_str(),
                i + 1 < phases.size() ? "," : "");
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<DiscoveryRequest> mix = QueryMix(args.task);
  namespace fs = std::filesystem;
  const std::string cache_path =
      (fs::temp_directory_path() / "bench_serving.rlog").string();
  fs::remove(cache_path);
  fs::remove(cache_path + ".compact");

  std::vector<PhaseResult> phases;

  // ---- Phase 1: cold process-per-query. Every query pays startup +
  // lake + universe + all trainings. A few samples suffice — the
  // latencies barely vary.
  size_t unique_trainings = 0;  // Exact trainings of one mix[0] run.
  {
    PhaseResult cold;
    cold.mode = "cold_process";
    cold.queries = std::min<size_t>(3, mix.size());
    WallTimer wall;
    for (size_t q = 0; q < cold.queries; ++q) {
      WallTimer latency;
      auto response =
          DiscoveryService::AnswerDetached(mix[q % mix.size()], args.scale);
      if (!response.ok()) {
        std::fprintf(stderr, "cold query failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      cold.latencies_ms.push_back(latency.Millis());
      cold.exact_evals += response->exact_evals;
      cold.persistent_hits += response->persistent_hits;
      if (q == 0) unique_trainings = response->exact_evals;
    }
    cold.wall_seconds = wall.Seconds();
    phases.push_back(std::move(cold));
  }
  const double cold_p50 = Percentile(phases[0].latencies_ms, 0.50);

  // ---- Phase 1b: cold-concurrent fusion. Two clients race the same
  // cold query on a cache-less service: the cross-query training fuser
  // must collapse the duplicate work to exactly one training per unique
  // state (trainings_shared > 0, total exact == the unique-state count
  // one detached run pays).
  {
    PhaseResult fusion;
    fusion.mode = "cold_concurrent";
    fusion.clients = 2;
    fusion.queries = 2;
    DiscoveryService::Options fusion_options;
    fusion_options.sessions = 2;
    fusion_options.valuation_threads = args.threads;
    fusion_options.task_row_scale = args.scale;
    DiscoveryService fusion_service(fusion_options);
    if (Status preloaded = fusion_service.Preload(args.task);
        !preloaded.ok()) {
      std::fprintf(stderr, "preload failed: %s\n",
                   preloaded.ToString().c_str());
      return 1;
    }
    std::mutex mu;
    std::vector<std::thread> workers;
    WallTimer wall;
    for (size_t c = 0; c < fusion.clients; ++c) {
      workers.emplace_back([&] {
        WallTimer latency;
        auto response = fusion_service.Answer(mix[0]);
        const double ms = latency.Millis();
        std::lock_guard<std::mutex> lock(mu);
        if (response.ok()) {
          fusion.latencies_ms.push_back(ms);
          fusion.exact_evals += response->exact_evals;
          fusion.persistent_hits += response->persistent_hits;
          fusion.fused_hits += response->fused_hits;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    fusion.wall_seconds = wall.Seconds();
    if (fusion.latencies_ms.size() != fusion.queries) {
      std::fprintf(stderr, "fusion phase dropped queries (%zu of %zu)\n",
                   fusion.latencies_ms.size(), fusion.queries);
      return 1;
    }
    const MetricsSnapshot snapshot = fusion_service.SnapshotMetrics();
    if (snapshot.trainings_shared == 0 ||
        fusion.exact_evals != unique_trainings) {
      std::fprintf(stderr,
                   "FAIL: cold-concurrent fusion trained %zu states "
                   "(expected %zu unique) and shared %llu\n",
                   fusion.exact_evals, unique_trainings,
                   (unsigned long long)snapshot.trainings_shared);
      return 1;
    }
    phases.push_back(std::move(fusion));
  }

  // ---- The service under test: shared pool, shared cache file. Scoped
  // so the cache writer lock releases before the QoS overload phase
  // reopens the same file.
  {
  DiscoveryService::Options options;
  options.sessions = 4;
  options.queue_capacity = 64;
  options.valuation_threads = args.threads;
  options.default_cache_path = cache_path;
  options.task_row_scale = args.scale;
  DiscoveryService service(options);
  if (Status preloaded = service.Preload(args.task); !preloaded.ok()) {
    std::fprintf(stderr, "preload failed: %s\n",
                 preloaded.ToString().c_str());
    return 1;
  }

  // Warm-up pass: run each unique query once so the cache holds every
  // training the mix needs.
  for (const DiscoveryRequest& request : mix) {
    auto response = service.Answer(request);
    if (!response.ok()) {
      std::fprintf(stderr, "warm-up query failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
  }

  // ---- Phase 2..4: warm service at 1, 2, 4 concurrent clients.
  for (size_t clients : {size_t{1}, size_t{2}, size_t{4}}) {
    PhaseResult warm;
    warm.mode = "warm_service";
    warm.clients = clients;
    warm.queries = args.queries;
    std::mutex mu;
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    WallTimer wall;
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&] {
        for (;;) {
          const size_t q = next.fetch_add(1);
          if (q >= warm.queries) return;
          WallTimer latency;
          auto response = service.Answer(mix[q % mix.size()]);
          const double ms = latency.Millis();
          std::lock_guard<std::mutex> lock(mu);
          if (response.ok()) {
            warm.latencies_ms.push_back(ms);
            warm.exact_evals += response->exact_evals;
            warm.persistent_hits += response->persistent_hits;
            warm.fused_hits += response->fused_hits;
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    warm.wall_seconds = wall.Seconds();
    if (warm.latencies_ms.size() != warm.queries) {
      std::fprintf(stderr, "warm phase dropped queries (%zu of %zu)\n",
                   warm.latencies_ms.size(), warm.queries);
      return 1;
    }
    phases.push_back(std::move(warm));
  }

  // The acceptance gate: a warm service trains nothing and answers ≥5x
  // faster (per-query p50) than cold process-per-query.
  for (size_t i = 1; i < phases.size(); ++i) {
    if (phases[i].mode != "warm_service") continue;
    if (phases[i].exact_evals != 0) {
      std::fprintf(stderr,
                   "FAIL: warm phase (clients=%zu) performed %zu exact "
                   "trainings\n",
                   phases[i].clients, phases[i].exact_evals);
      return 1;
    }
  }
  }  // Warm service drains; the cache writer lock releases.

  // ---- Phase 5: open-loop overload against a QoS-enabled service on
  // the warm cache. A gold (priority 10) and a bronze (priority 0)
  // tenant share a small admission queue; the offered rate is pegged at
  // ~2x the measured capacity, so the queue must shed. The gates: every
  // rejection is 429-class (ResourceExhausted), shedding lands on
  // bronze, and gold's contended p99 stays within 3x its uncontended
  // p99 (the QoS promise of docs/SERVING.md §7).
  {
    DiscoveryService::Options qos_options;
    qos_options.sessions = 2;
    qos_options.queue_capacity = 8;
    qos_options.valuation_threads = args.threads;
    qos_options.default_cache_path = cache_path;
    qos_options.task_row_scale = args.scale;
    TenantSpec gold;
    gold.name = "gold";
    gold.api_key = "sk_gold";
    gold.priority = 10;
    TenantSpec bronze;
    bronze.name = "bronze";
    bronze.api_key = "sk_bronze";
    bronze.priority = 0;
    qos_options.tenants = {gold, bronze};
    DiscoveryService qos(qos_options);
    if (Status preloaded = qos.Preload(args.task); !preloaded.ok()) {
      std::fprintf(stderr, "preload failed: %s\n",
                   preloaded.ToString().c_str());
      return 1;
    }

    // Uncontended baseline: gold alone, closed loop over the warm mix.
    PhaseResult solo;
    solo.mode = "qos_uncontended";
    solo.tenant = "gold";
    solo.queries = args.queries;
    solo.offered = args.queries;
    {
      WallTimer wall;
      for (size_t q = 0; q < solo.queries; ++q) {
        DiscoveryRequest request = mix[q % mix.size()];
        request.api_key = "sk_gold";
        WallTimer latency;
        auto response = qos.Answer(request);
        if (!response.ok()) {
          std::fprintf(stderr, "uncontended gold query failed: %s\n",
                       response.status().ToString().c_str());
          return 1;
        }
        solo.latencies_ms.push_back(latency.Millis());
        solo.exact_evals += response->exact_evals;
      }
      solo.wall_seconds = wall.Seconds();
    }
    const double solo_p50 = Percentile(solo.latencies_ms, 0.50);
    const double solo_p99 = Percentile(solo.latencies_ms, 0.99);
    phases.push_back(std::move(solo));

    // Open-loop flood: submissions arrive on schedule whether or not
    // earlier ones completed — the regime where a closed-loop bench
    // would silently self-throttle. Bronze carries 3/4 of the offered
    // load, gold 1/4.
    const double capacity_qps =
        double(qos_options.sessions) / std::max(solo_p50 / 1000.0, 1e-4);
    const double offered_qps = 2.0 * capacity_qps;
    struct TenantLoad {
      const char* name = "";
      const char* key = "";
      size_t offered = 0;
      double qps = 0.0;
      size_t done = 0;  // Callbacks fired (completions + shed-in-queue).
      std::vector<double> ok_ms;
      std::vector<Status> rejections;
      size_t failed = 0;  // Non-QoS errors (must stay 0).
    };
    TenantLoad loads[2];
    loads[0].name = "gold";
    loads[0].key = "sk_gold";
    loads[0].offered = args.queries * 2;
    loads[0].qps = offered_qps / 4.0;
    loads[1].name = "bronze";
    loads[1].key = "sk_bronze";
    loads[1].offered = args.queries * 6;
    loads[1].qps = offered_qps * 3.0 / 4.0;
    std::mutex mu;
    std::condition_variable all_done;
    WallTimer wall;
    std::vector<std::thread> submitters;
    for (TenantLoad& load_slot : loads) {
      // The threads outlive the loop iteration: hand them a stable
      // pointer, not the range-for reference.
      TenantLoad* load = &load_slot;
      submitters.emplace_back([&, load] {
        const auto start = std::chrono::steady_clock::now();
        for (size_t q = 0; q < load->offered; ++q) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(double(q) /
                                                        load->qps)));
          DiscoveryRequest request = mix[q % mix.size()];
          request.api_key = load->key;
          const auto submitted = std::chrono::steady_clock::now();
          const Status door = qos.Submit(
              std::move(request),
              [load, &mu, &all_done,
               submitted](Result<DiscoveryResponse> response) {
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - submitted)
                        .count();
                std::lock_guard<std::mutex> lock(mu);
                if (response.ok()) {
                  load->ok_ms.push_back(ms);
                } else if (response.status().code() ==
                           StatusCode::kResourceExhausted) {
                  load->rejections.push_back(response.status());
                } else {
                  ++load->failed;
                }
                ++load->done;
                all_done.notify_one();
              });
          if (!door.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            if (door.code() == StatusCode::kResourceExhausted) {
              load->rejections.push_back(door);
            } else {
              ++load->failed;
            }
            ++load->done;
          }
        }
      });
    }
    for (std::thread& s : submitters) s.join();
    {
      std::unique_lock<std::mutex> lock(mu);
      all_done.wait(lock, [&] {
        return loads[0].done == loads[0].offered &&
               loads[1].done == loads[1].offered;
      });
    }
    const double overload_wall = wall.Seconds();

    bool failed = false;
    for (TenantLoad& load : loads) {
      PhaseResult contended;
      contended.mode = "qos_overload";
      contended.tenant = load.name;
      contended.clients = qos_options.sessions;
      contended.offered = load.offered;
      contended.queries = load.ok_ms.size();
      contended.shed = load.rejections.size();
      contended.latencies_ms = load.ok_ms;
      contended.wall_seconds = overload_wall;
      phases.push_back(std::move(contended));
      if (load.failed != 0) {
        std::fprintf(stderr,
                     "FAIL: tenant %s saw %zu non-QoS errors under "
                     "overload\n",
                     load.name, load.failed);
        failed = true;
      }
      for (const Status& rejection : load.rejections) {
        if (HttpStatusForStatus(rejection) != 429) {
          std::fprintf(stderr,
                       "FAIL: tenant %s shed with a non-429 status: %s\n",
                       load.name, rejection.ToString().c_str());
          failed = true;
          break;
        }
      }
    }
    if (loads[1].rejections.empty()) {
      std::fprintf(stderr,
                   "FAIL: no bronze request was shed at 2x capacity "
                   "(offered %.0f qps against ~%.0f qps)\n",
                   offered_qps, capacity_qps);
      failed = true;
    }
    const double gold_p99 = Percentile(loads[0].ok_ms, 0.99);
    // Small floor: at sub-5ms baselines scheduler jitter, not QoS,
    // dominates the ratio.
    const double gold_gate = 3.0 * std::max(solo_p99, 5.0);
    if (loads[0].ok_ms.empty() || gold_p99 > gold_gate) {
      std::fprintf(stderr,
                   "FAIL: gold p99 %.1f ms under 2x overload exceeds 3x "
                   "its uncontended p99 (%.1f ms, gate %.1f ms)\n",
                   gold_p99, solo_p99, gold_gate);
      failed = true;
    }
    if (failed) return 1;
  }

  if (args.json) {
    PrintJson(phases, cold_p50);
  } else {
    std::printf("== bench_serving: task %s, scale %.2f, %zu-query mix ==\n",
                args.task.c_str(), args.scale, mix.size());
    for (const PhaseResult& r : phases) PrintHuman(r, cold_p50);
    std::printf("(cache file: %s)\n", cache_path.c_str());
  }
  return 0;
}
