/// Shared definitions of the serving benchmark (bench_e2e, bench_layers):
/// the workloads, the seeded request streams, the server command line,
/// and the small statistics and output helpers both binaries use.
///
/// Every request names its measures explicitly and leaves out
/// `train_time`, so every skyline is a deterministic function of the
/// request and can be compared byte for byte.

#ifndef MODIS_BENCH_E2E_WORKLOAD_H_
#define MODIS_BENCH_E2E_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/discovery_service.h"
#include "service/json.h"

namespace modis {
namespace e2e {

/// The three traffic mixes. Each sends the same two request classes:
///  - cold: a novel discovery query (unique namespace, so neither the
///    record cache nor the training fuser can serve it);
///  - warm: one of 24 fixed queries whose trainings a warm-up pass
///    already recorded, so it replays without training.
enum class Workload {
  kIsolated,       // Cold phase, then warm phase; never at once.
  kReadWrite,      // One cold writer beside one warm reader, in-process.
  kPoolReadWrite,  // The same mix through --workers 2 (shm job ring).
};

inline bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "isolated") {
    *out = Workload::kIsolated;
  } else if (name == "read_write") {
    *out = Workload::kReadWrite;
  } else if (name == "pool_read_write") {
    *out = Workload::kPoolReadWrite;
  } else {
    return false;
  }
  return true;
}

inline int WorkerProcesses(Workload w) {
  return w == Workload::kPoolReadWrite ? 2 : 0;
}

/// Row scale of every generated lake (server, --batch, and probes).
constexpr double kRowScale = 0.4;

/// The fixed modis_server command line of every workload (argv[0] is the
/// binary). Paths are relative to the run directory.
inline std::vector<std::string> ServerArgs(const std::string& binary,
                                           Workload w) {
  std::vector<std::string> args = {
      binary,      "--http",    "--socket",  "server.sock",
      "--row-scale", std::to_string(kRowScale),
      "--sessions", "2",        "--queue",   "64",
      "--threads", "0",         "--tasks",   "T1,T2,T3",
      "--log-level", "warn",    "--cache",   "cache.rlog"};
  if (WorkerProcesses(w) > 0) {
    args.insert(args.end(), {"--workers", std::to_string(WorkerProcesses(w)),
                             "--ring-path", "ring.shm"});
  }
  return args;
}

/// Task measures minus train_time, in each task's canonical order.
inline std::vector<std::string> TaskMeasures(const std::string& task) {
  if (task == "T1") return {"acc", "fisher", "mi"};
  if (task == "T2") return {"f1", "acc", "fisher", "mi"};
  return {"mse", "mae"};  // T3.
}

/// One cold query class: task, oracle, and a valuation budget sized so
/// each class costs a few hundred milliseconds on a 4-thread host.
struct ColdClass {
  const char* task;
  const char* oracle;
  size_t budget;
};

/// T3's Ridge trains in microseconds, so materialize + encode dominate
/// it; the two `gbm` classes exercise the MO-GBM surrogate.
inline const std::vector<ColdClass>& ColdClasses() {
  static const std::vector<ColdClass> classes = {
      {"T1", "exact", 40},  {"T2", "exact", 300}, {"T3", "exact", 1000},
      {"T1", "gbm", 150},   {"T2", "gbm", 1000}};
  return classes;
}

inline const ColdClass& ColdClassOf(size_t i) {
  return ColdClasses()[i % ColdClasses().size()];
}

constexpr const char* kVariants[] = {"apx", "nobi", "bi", "div"};

/// The i-th cold query of the seed's stream. Classes rotate in a fixed
/// order; variant and epsilon are drawn from the seed.
inline DiscoveryRequest ColdRequest(uint64_t seed, size_t i,
                                    const std::string& cache_mode) {
  Rng rng(seed * 1000003u + i);
  const ColdClass& cls = ColdClassOf(i);
  DiscoveryRequest request;
  request.task = cls.task;
  request.oracle = cls.oracle;
  request.budget = cls.budget;
  request.variant = kVariants[rng.UniformInt(4)];
  request.epsilon = 0.1 + 0.05 * double(rng.UniformInt(9));
  request.measures = TaskMeasures(request.task);
  request.cache_mode = cache_mode;
  request.cache_namespace =
      "cold-s" + std::to_string(seed) + "-q" + std::to_string(i);
  return request;
}

/// The 24 warm queries: T1-T3 x {bi, apx, nobi, div} x eps {0.2, 0.4}.
inline std::vector<DiscoveryRequest> WarmSet() {
  std::vector<DiscoveryRequest> set;
  for (const char* task : {"T1", "T2", "T3"}) {
    for (const char* variant : {"bi", "apx", "nobi", "div"}) {
      for (double epsilon : {0.2, 0.4}) {
        DiscoveryRequest request;
        request.task = task;
        request.variant = variant;
        request.epsilon = epsilon;
        request.budget = 60;
        request.measures = TaskMeasures(task);
        request.cache_mode = "read_write";
        set.push_back(std::move(request));
      }
    }
  }
  return set;
}

/// Cache mode of the cold stream: the isolated workload keeps storage
/// out of the cold path; the read-write workloads record every training.
inline std::string ColdCacheMode(Workload w) {
  return w == Workload::kIsolated ? "off" : "read_write";
}

/// The HTTP/1.1 bytes of POST /v1/query carrying `body`.
inline std::string HttpQuery(const std::string& body) {
  return "POST /v1/query HTTP/1.1\r\nHost: modis\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * double(values.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - double(lo));
}

/// One named metric of the output document.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics in name order, printed as one JSON object (numbers with all
/// their digits).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }

  std::string ToJson() const {
    JsonValue doc{JsonValue::Object{}};
    for (const auto& [name, metric] : metrics_) {
      JsonValue entry{JsonValue::Object{}};
      entry.Set("value", metric.value);
      entry.Set("unit", metric.unit);
      doc.Set(name, std::move(entry));
    }
    return doc.Dump();
  }

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace e2e
}  // namespace modis

#endif  // MODIS_BENCH_E2E_WORKLOAD_H_
