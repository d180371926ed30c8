/// bench_e2e — the serving benchmark's load generator.
///
/// Spawns the built modis_server with the workload's fixed flags, drives
/// it over HTTP/1.1 on a unix socket (POST /v1/query, GET /healthz,
/// GET /metrics) from at most two closed-loop client threads, checks
/// every answer, and prints one JSON document of metrics as the last
/// line of stdout:
///
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
///
/// Without --trace the metrics are the end-to-end ones (docs in
/// README.md). With --trace the measured phase runs twice, untraced then
/// with `"trace":true`, and the metrics are the per-layer numbers derived
/// from the server's span trees, response counters, and a /metrics
/// scrape.
///
/// Checks (any failure makes "correct" false and the exit code 1):
///  - every request answers HTTP 200 with "ok":true;
///  - every warm answer trained nothing (exact_evals == 0) and its
///    skyline is byte-identical to the warm-up answer of the same query;
///  - three seed-sampled cold queries match `modis_server --batch` byte
///    for byte (run after the timed phase);
///  - the server drains on SIGTERM and exits 0 (every start).
///
/// Usage: bench_e2e --server PATH --workload W --seed N --seconds S
///                  [--trace]
/// Run it from an empty scratch directory: the socket, cache file, and
/// ring segment are created there, under short relative names.

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "moo/hypervolume.h"
#include "service/transport.h"
#include "service/wire.h"
#include "workload.h"

using namespace modis;
using namespace modis::e2e;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr const char* kSocket = "server.sock";
/// Server starts per run (odd); setup_s is their median.
constexpr int kSetupStarts = 11;
/// The batch check and skyline_hv sample from this prefix of the cold
/// stream (every run sends at least two class rotations).
constexpr size_t kColdPrefix = 10;

struct Args {
  std::string server;
  std::string workload_name;
  Workload workload = Workload::kIsolated;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--server" && has_value) {
      args->server = argv[++i];
    } else if (flag == "--workload" && has_value) {
      args->workload_name = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr, "bench_e2e: bad argument %s\n", flag.c_str());
      return false;
    }
  }
  if (args->server.empty() ||
      !ParseWorkload(args->workload_name, &args->workload) ||
      args->seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: bench_e2e --server PATH --workload "
                 "isolated|read_write|pool_read_write --seed N --seconds S "
                 "[--trace]\n");
    return false;
  }
  return true;
}

// ------------------------------------------------------------ processes

/// fork + exec of `args`; the child's stdout goes to `stdout_fd`, or to
/// stderr when it is -1 (this binary's stdout carries only the result).
pid_t Spawn(const std::vector<std::string>& args, int stdout_fd) {
  std::vector<std::string> storage = args;
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(stdout_fd >= 0 ? stdout_fd : STDERR_FILENO, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

/// The state letter and parent pid of `pid`, from /proc; false once the
/// process is gone.
bool ReadProcStat(pid_t pid, char* state, long* ppid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  // The fields after the parenthesized command: state, ppid, ...
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(line.substr(close + 1));
  return bool(rest >> *state >> *ppid);
}

/// Direct children of `parent` (the pool's worker processes).
std::vector<pid_t> ChildrenOf(pid_t parent) {
  std::vector<pid_t> children;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return children;
  while (dirent* entry = ::readdir(proc)) {
    const pid_t pid = pid_t(std::atoi(entry->d_name));
    char state = 0;
    long ppid = 0;
    if (pid > 0 && ReadProcStat(pid, &state, &ppid) && ppid == parent) {
      children.push_back(pid);
    }
  }
  ::closedir(proc);
  return children;
}

/// VmHWM (peak resident set) of one process in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Waits for `pid` to exit for up to `timeout_s`; false on timeout.
bool WaitExit(pid_t pid, double timeout_s, int* status) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    const pid_t done = ::waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    if (done < 0 || SecondsSince(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// One modis_server process. The destructor kills whatever is still
/// running (server and worker children), so no early return leaks one.
class ServerProcess {
 public:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// True while the process has not exited.
  bool Alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// SIGTERM, then waits for the graceful drain. OK only when the server
  /// exits 0 within the timeout.
  Status Drain() {
    if (pid_ <= 0) return Status::FailedPrecondition("server not running");
    ::kill(pid_, SIGTERM);
    int status = 0;
    if (!WaitExit(pid_, 30.0, &status)) {
      Kill();
      return Status::Internal("server did not drain within 30 s of SIGTERM");
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("server exited with status " +
                              std::to_string(status) + " after SIGTERM");
    }
    return Status::OK();
  }

  void Kill() {
    if (pid_ <= 0) return;
    const std::vector<pid_t> children = ChildrenOf(pid_);
    for (pid_t child : children) ::kill(child, SIGKILL);
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    // The workers were reparented when the server died; wait until the
    // kernel has torn them down.
    for (pid_t child : children) {
      char state = 0;
      long ppid = 0;
      for (int i = 0; i < 500 && ReadProcStat(child, &state, &ppid) &&
                      state != 'Z';
           ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }

 private:
  pid_t pid_;
};

// ------------------------------------------------------------ HTTP client

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One keep-alive HTTP/1.1 connection to the server's unix socket.
class HttpClient {
 public:
  Status Connect() {
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = kSocket;
    auto channel = ClientChannel::Connect(endpoint);
    if (!channel.ok()) return channel.status();
    channel_ = std::move(channel).value();
    pending_.clear();
    return Status::OK();
  }

  /// Sends one request and reads its Content-Length-framed response.
  Result<HttpReply> Exchange(const std::string& request) {
    MODIS_RETURN_IF_ERROR(channel_.SendRaw(request));
    size_t head_end = std::string::npos;
    while ((head_end = pending_.find("\r\n\r\n")) == std::string::npos) {
      MODIS_RETURN_IF_ERROR(ReadMore());
    }
    HttpReply reply;
    if (pending_.compare(0, 9, "HTTP/1.1 ") != 0) {
      return Status::IoError("malformed status line");
    }
    reply.status = std::atoi(pending_.c_str() + 9);
    const std::string head = pending_.substr(0, head_end);
    size_t length = 0;
    bool framed = false;
    std::istringstream lines(head);
    std::string line;
    while (std::getline(lines, line)) {
      std::string lower = line;
      for (char& c : lower) {
        c = char(std::tolower(static_cast<unsigned char>(c)));
      }
      if (lower.rfind("content-length:", 0) == 0) {
        length = std::strtoull(line.c_str() + 15, nullptr, 10);
        framed = true;
      }
    }
    if (!framed) return Status::IoError("response without Content-Length");
    const size_t body_start = head_end + 4;
    while (pending_.size() < body_start + length) {
      MODIS_RETURN_IF_ERROR(ReadMore());
    }
    reply.body = pending_.substr(body_start, length);
    pending_.erase(0, body_start + length);
    return reply;
  }

 private:
  Status ReadMore() {
    auto chunk = channel_.ReceiveRaw(1 << 16);
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) return Status::IoError("server closed the connection");
    pending_ += *chunk;
    return Status::OK();
  }

  ClientChannel channel_;
  std::string pending_;
};

Result<HttpReply> HttpGet(const std::string& target) {
  HttpClient client;
  MODIS_RETURN_IF_ERROR(client.Connect());
  return client.Exchange("GET " + target +
                         " HTTP/1.1\r\nHost: modis\r\n"
                         "Connection: close\r\n\r\n");
}

/// Spawns the server and waits until GET /healthz answers 200: bind,
/// preload of T1-T3, and the accept loop are all up. Returns the seconds
/// from spawn to that answer.
Result<double> StartServer(const Args& args,
                           std::unique_ptr<ServerProcess>* out) {
  ::unlink(kSocket);
  const Clock::time_point start = Clock::now();
  auto server = std::make_unique<ServerProcess>(
      Spawn(ServerArgs(args.server, args.workload), -1));
  if (server->pid() <= 0) return Status::Internal("fork failed");
  HttpClient client;
  while (!client.Connect().ok()) {
    if (!server->Alive()) return Status::Internal("server exited at start");
    if (SecondsSince(start) > 60.0) {
      return Status::Internal("server did not bind within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  auto reply = client.Exchange(
      "GET /healthz HTTP/1.1\r\nHost: modis\r\nConnection: close\r\n\r\n");
  if (!reply.ok()) return reply.status();
  if (reply->status != 200) {
    return Status::Internal("/healthz answered " +
                            std::to_string(reply->status));
  }
  const double seconds = SecondsSince(start);
  *out = std::move(server);
  return seconds;
}

// ------------------------------------------------------------ answers

/// The skyline part of an answer, serialized canonically; two answers
/// are byte-identical when these strings are equal.
std::string SkylineBytes(const DiscoveryResponse& response) {
  JsonValue::Array measures;
  for (const std::string& m : response.measure_names) measures.push_back(m);
  JsonValue::Array rows;
  for (const DiscoverySkylineRow& row : response.skyline) {
    JsonValue entry{JsonValue::Object{}};
    entry.Set("signature", row.signature);
    entry.Set("level", row.level);
    entry.Set("rows", row.rows);
    entry.Set("cols", row.cols);
    JsonValue::Array raw(row.raw.begin(), row.raw.end());
    JsonValue::Array normalized(row.normalized.begin(), row.normalized.end());
    entry.Set("raw", std::move(raw));
    entry.Set("normalized", std::move(normalized));
    rows.push_back(std::move(entry));
  }
  JsonValue doc{JsonValue::Object{}};
  doc.Set("task", response.task);
  doc.Set("measures", std::move(measures));
  doc.Set("skyline", std::move(rows));
  return doc.Dump();
}

/// One answered request of the measured phase.
struct Answer {
  double client_ms = 0.0;
  DiscoveryResponse response;
};

/// Everything a measured phase records, shared by the client threads.
struct PhaseLog {
  std::mutex mu;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;  // The first few, for the report.
  std::vector<double> cold_ms;      // In stream order.
  double cold_wall_s = 0.0;
  std::vector<double> warm_ms;
  double warm_wall_s = 0.0;
  /// Cold answers by stream index: the first kColdPrefix on untraced
  /// phases, every one on traced phases.
  std::vector<std::pair<size_t, Answer>> cold_answers;
  std::vector<Answer> warm_answers;  // Traced phases only.

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Sends one discovery request; returns the parsed answer or records the
/// failure.
bool Query(HttpClient* client, const DiscoveryRequest& request,
           PhaseLog* log, Answer* out) {
  const std::string bytes = HttpQuery(SerializeDiscoveryRequest(request));
  {
    std::lock_guard<std::mutex> lock(log->mu);
    ++log->attempted;
  }
  const Clock::time_point start = Clock::now();
  auto reply = client->Exchange(bytes);
  out->client_ms = SecondsSince(start) * 1e3;
  if (!reply.ok()) {
    log->Fail(reply.status().ToString());
    (void)client->Connect();
    return false;
  }
  if (reply->status != 200) {
    log->Fail("HTTP " + std::to_string(reply->status) + ": " + reply->body);
    return false;
  }
  auto response = ParseDiscoveryResponse(reply->body);
  if (!response.ok()) {
    log->Fail(response.status().ToString());
    return false;
  }
  out->response = std::move(response).value();
  return true;
}

struct RunContext {
  const Args* args = nullptr;
  const std::vector<DiscoveryRequest>* warm_set = nullptr;
  const std::vector<std::string>* warm_skylines = nullptr;
  bool traced = false;
};

/// Cold queries per measured phase: whole class rotations, one per three
/// seconds of the phase (at least two). A fixed amount of work per run
/// keeps every class equally represented and the cache growth of the
/// read-write workloads the same from run to run.
size_t ColdCount(double seconds) {
  return ColdClasses().size() *
         std::max<size_t>(2, size_t(std::lround(seconds / 3.0)));
}

/// Sends cold queries [first, first + count) of the seed's cold stream,
/// each after the previous answer.
void SendCold(const RunContext& ctx, HttpClient* client, size_t first,
              size_t count, PhaseLog* log) {
  const Clock::time_point start = Clock::now();
  for (size_t index = first; index < first + count; ++index) {
    DiscoveryRequest request = ColdRequest(
        ctx.args->seed, index, ColdCacheMode(ctx.args->workload));
    request.trace = ctx.traced;
    Answer answer;
    if (!Query(client, request, log, &answer)) continue;
    std::lock_guard<std::mutex> lock(log->mu);
    log->cold_ms.push_back(answer.client_ms);
    if (ctx.traced || index < kColdPrefix) {
      log->cold_answers.emplace_back(index, std::move(answer));
    }
  }
  std::lock_guard<std::mutex> lock(log->mu);
  log->cold_wall_s += SecondsSince(start);
}

/// Replays warm-set queries drawn by `rng`, each after the previous
/// answer, until `deadline` or `stop`; checks each answer against its
/// warm-up answer.
void SendWarm(const RunContext& ctx, HttpClient* client, Rng* rng,
              Clock::time_point deadline, const std::atomic<bool>& stop,
              PhaseLog* log) {
  while (Clock::now() < deadline && !stop.load()) {
    const size_t index = size_t(rng->UniformInt(ctx.warm_set->size()));
    DiscoveryRequest request = (*ctx.warm_set)[index];
    request.trace = ctx.traced;
    Answer answer;
    if (!Query(client, request, log, &answer)) continue;
    if (answer.response.exact_evals != 0) {
      log->Fail("warm query " + std::to_string(index) + " trained " +
                std::to_string(answer.response.exact_evals) + " states");
      continue;
    }
    if (SkylineBytes(answer.response) != (*ctx.warm_skylines)[index]) {
      log->Fail("warm query " + std::to_string(index) +
                " answered a different skyline than its warm-up");
      continue;
    }
    std::lock_guard<std::mutex> lock(log->mu);
    log->warm_ms.push_back(answer.client_ms);
    if (ctx.traced) log->warm_answers.push_back(std::move(answer));
  }
}

/// Runs one measured phase sized by `seconds` on two connections:
/// ColdCount(seconds) cold queries from one client, and warm queries
/// either beside them (read-write mixes: one reader until the writer is
/// done) or between them (isolated: after each class rotation, both
/// clients replay warm queries; half of `seconds` in all).
void RunPhase(const RunContext& ctx, double seconds, size_t* next_cold,
              PhaseLog* log) {
  const size_t cold = ColdCount(seconds);
  const size_t first = *next_cold;
  *next_cold += cold;
  HttpClient clients[2];
  for (HttpClient& client : clients) {
    if (Status connected = client.Connect(); !connected.ok()) {
      log->Fail(connected.ToString());
      return;
    }
  }
  const uint64_t seed = ctx.args->seed;
  Rng warm_rngs[2] = {Rng(seed * 7919u + 104729u), Rng(seed * 7919u + 209458u)};
  std::atomic<bool> writer_done{false};
  if (ctx.args->workload == Workload::kIsolated) {
    // Cold and warm never overlap, but they alternate, so both sample the
    // whole run: a slow stretch of a shared machine hits both alike.
    const size_t rotation = ColdClasses().size();
    const size_t rotations = cold / rotation;
    const auto warm_span = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / 2.0 / double(rotations)));
    for (size_t r = 0; r < rotations; ++r) {
      SendCold(ctx, &clients[0], first + r * rotation, rotation, log);
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline = start + warm_span;
      std::thread second([&] {
        SendWarm(ctx, &clients[1], &warm_rngs[1], deadline, writer_done, log);
      });
      SendWarm(ctx, &clients[0], &warm_rngs[0], deadline, writer_done, log);
      second.join();
      log->warm_wall_s += SecondsSince(start);
    }
    return;
  }
  const Clock::time_point start = Clock::now();
  std::thread writer([&] {
    SendCold(ctx, &clients[0], first, cold, log);
    writer_done = true;
  });
  SendWarm(ctx, &clients[1], &warm_rngs[0], Clock::time_point::max(),
           writer_done, log);
  const double reader_s = SecondsSince(start);
  writer.join();
  log->warm_wall_s += reader_s;
}

/// Runs every warm-set query once per worker process (once in-process),
/// recording each canonical skyline; later passes must repeat it.
Status WarmUp(const std::vector<DiscoveryRequest>& warm_set, int passes,
              std::vector<std::string>* skylines) {
  HttpClient client;
  MODIS_RETURN_IF_ERROR(client.Connect());
  skylines->assign(warm_set.size(), "");
  PhaseLog log;
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < warm_set.size(); ++i) {
      Answer answer;
      if (!Query(&client, warm_set[i], &log, &answer)) {
        return Status::Internal("warm-up query failed: " + log.errors.back());
      }
      const std::string bytes = SkylineBytes(answer.response);
      if (pass == 0) {
        (*skylines)[i] = bytes;
      } else if (bytes != (*skylines)[i]) {
        return Status::Internal("warm-up pass " + std::to_string(pass) +
                                " changed the skyline of query " +
                                std::to_string(i));
      }
    }
  }
  return Status::OK();
}

/// `modis_server --batch` on one request: the service-free reference.
Result<DiscoveryResponse> RunBatch(const std::string& server,
                                   const DiscoveryRequest& request) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid =
      Spawn({server, "--batch", SerializeDiscoveryRequest(request),
             "--row-scale", std::to_string(kRowScale), "--log-level", "warn"},
            pipe_fds[1]);
  ::close(pipe_fds[1]);
  std::string out;
  char buffer[1 << 14];
  for (;;) {
    const ssize_t n = ::read(pipe_fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buffer, size_t(n));
  }
  ::close(pipe_fds[0]);
  int status = 0;
  if (pid <= 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::Internal("modis_server --batch failed: " + out);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return ParseDiscoveryResponse(out);
}

// ------------------------------------------------------------ trace

/// Per-query sums over one span tree.
struct SpanTotals {
  double plan_ms = 0.0;
  double train_ms = 0.0;
  double commit_ms = 0.0;
  double flush_ms = 0.0;
  size_t flushes = 0;
  /// The "run" span minus the batch and flush spans nested under it.
  double search_self_ms = 0.0;
  std::vector<double> exact_ms;
};

SpanTotals Totals(const std::vector<TraceSpan>& spans) {
  SpanTotals totals;
  std::map<SpanId, const TraceSpan*> by_id;
  for (const TraceSpan& span : spans) by_id[span.id] = &span;
  // The run span's self time: subtract each batch/flush span whose
  // nearest batch/flush/run ancestor is the run span itself.
  const auto under_run = [&](const TraceSpan& span) {
    for (SpanId p = span.parent; p != kNoSpan;) {
      const auto it = by_id.find(p);
      if (it == by_id.end()) return false;
      const std::string& name = it->second->name;
      if (name == "run") return true;
      if (name == "batch" || name == "flush") return false;
      p = it->second->parent;
    }
    return false;
  };
  for (const TraceSpan& span : spans) {
    const double ms = span.duration_ms < 0.0 ? 0.0 : span.duration_ms;
    if (span.name == "plan") totals.plan_ms += ms;
    if (span.name == "train") totals.train_ms += ms;
    if (span.name == "commit") totals.commit_ms += ms;
    if (span.name == "exact") totals.exact_ms.push_back(ms);
    if (span.name == "flush") {
      totals.flush_ms += ms;
      ++totals.flushes;
    }
    if (span.name == "run") totals.search_self_ms += ms;
    if ((span.name == "batch" || span.name == "flush") && under_run(span)) {
      totals.search_self_ms -= ms;
    }
  }
  return totals;
}

/// Completions per second; 0 when nothing completed.
double Rate(size_t count, double seconds) {
  return seconds > 0.0 ? double(count) / seconds : 0.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

/// Value of one un-labelled Prometheus sample; 0 when absent.
double PrometheusValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0.0;
}

/// The per-layer metrics of one traced phase.
void TraceMetrics(const PhaseLog& traced, double untraced_warm_p50,
                  const std::string& prometheus, MetricSet* out) {
  std::vector<double> front_door, queue, search_self, plan, train, commit,
      flush, valuated, pruned, exact_evals, surrogate, fused;
  std::map<std::string, std::vector<double>> exact_by_task;
  double persistent_hits = 0.0, warm_exact = 0.0;
  for (const Answer& answer : traced.warm_answers) {
    const DiscoveryResponse& r = answer.response;
    const SpanTotals t = Totals(r.trace_spans);
    front_door.push_back(answer.client_ms - r.total_ms);
    queue.push_back(r.queue_ms);
    search_self.push_back(t.search_self_ms);
    plan.push_back(t.plan_ms);
    persistent_hits += double(r.persistent_hits);
    warm_exact += double(r.exact_evals);
  }
  for (const auto& [index, answer] : traced.cold_answers) {
    const DiscoveryResponse& r = answer.response;
    const SpanTotals t = Totals(r.trace_spans);
    queue.push_back(r.queue_ms);
    train.push_back(t.train_ms);
    commit.push_back(t.commit_ms);
    if (t.flushes > 0) flush.push_back(t.flush_ms);
    valuated.push_back(double(r.valuated_states));
    pruned.push_back(double(r.pruned_states));
    exact_evals.push_back(double(r.exact_evals));
    surrogate.push_back(double(r.surrogate_evals));
    fused.push_back(double(r.fused_hits));
    std::vector<double>& task = exact_by_task[ColdClassOf(index).task];
    task.insert(task.end(), t.exact_ms.begin(), t.exact_ms.end());
  }
  out->Set("service.front_door_ms", Percentile(front_door, 0.5), "ms");
  out->Set("service.queue_ms.p50", Percentile(queue, 0.5), "ms");
  out->Set("service.queue_ms.p99", Percentile(queue, 0.99), "ms");
  out->Set("service.retries",
           PrometheusValue(prometheus, "modis_ring_requeued_total") +
               PrometheusValue(prometheus, "modis_worker_restarts_total") +
               PrometheusValue(prometheus, "modis_ring_shed_total") +
               PrometheusValue(prometheus, "modis_qos_shed_total") +
               PrometheusValue(prometheus, "modis_rejected_total"),
           "count");
  out->Set("core.search_self_ms", Percentile(search_self, 0.5), "ms");
  out->Set("core.valuated_states", Mean(valuated), "count");
  out->Set("core.pruned_states", Mean(pruned), "count");
  out->Set("estimator.train_ms", Percentile(train, 0.5), "ms");
  for (const char* task : {"T1", "T2", "T3"}) {
    out->Set(std::string("estimator.exact_ms.") + task,
             Percentile(exact_by_task[task], 0.5), "ms");
  }
  out->Set("estimator.plan_ms", Percentile(plan, 0.5), "ms");
  out->Set("estimator.commit_ms", Percentile(commit, 0.5), "ms");
  out->Set("estimator.exact_evals", Mean(exact_evals), "count");
  out->Set("estimator.surrogate_evals", Mean(surrogate), "count");
  out->Set("estimator.fused_hits", Mean(fused), "count");
  // Cold queries only (warm replays append nothing); 0 on the isolated
  // workload, whose cold phase runs without a cache.
  out->Set("storage.flush_ms", Percentile(flush, 0.5), "ms");
  const double base = persistent_hits + warm_exact;
  out->Set("storage.warm_hit_rate", base > 0.0 ? persistent_hits / base : 0.0,
           "ratio");
  out->Set("storage.warm_hit_base", base, "count");
  const double traced_p50 = Percentile(traced.warm_ms, 0.5);
  out->Set("trace.overhead_pct",
           untraced_warm_p50 > 0.0
               ? (traced_p50 / untraced_warm_p50 - 1.0) * 100.0
               : 0.0,
           "%");
}

/// Mean hypervolume (reference 1.0 on every normalized measure, the
/// library's fixed Monte-Carlo seed) of the exact-oracle cold skylines
/// in the stream prefix.
double SkylineHypervolume(const PhaseLog& log) {
  std::vector<double> volumes;
  for (const auto& [index, answer] : log.cold_answers) {
    if (std::string(ColdClassOf(index).oracle) != "exact") continue;
    std::vector<PerfVector> points;
    for (const DiscoverySkylineRow& row : answer.response.skyline) {
      points.push_back(row.normalized);
    }
    if (points.empty()) continue;
    volumes.push_back(
        Hypervolume(points, PerfVector(points.front().size(), 1.0)));
  }
  return Mean(volumes);
}

/// Compares three seed-sampled prefix cold answers against --batch.
void BatchCheck(const Args& args, const PhaseLog& log,
                std::vector<std::string>* errors) {
  Rng rng(args.seed + 0xB47C4u);
  for (size_t index : rng.SampleWithoutReplacement(kColdPrefix, 3)) {
    const Answer* served = nullptr;
    for (const auto& [i, answer] : log.cold_answers) {
      if (i == index) served = &answer;
    }
    if (served == nullptr) {
      errors->push_back("cold query " + std::to_string(index) +
                        " has no served answer to check");
      continue;
    }
    auto reference =
        RunBatch(args.server, ColdRequest(args.seed, index, "off"));
    if (!reference.ok()) {
      errors->push_back(reference.status().ToString());
    } else if (SkylineBytes(*reference) != SkylineBytes(served->response)) {
      errors->push_back("cold query " + std::to_string(index) +
                        " differs from its --batch answer");
    }
  }
}

int Run(const Args& args) {
  std::vector<std::string> errors;
  MetricSet metrics;

  // ---- Set-up time over kSetupStarts server starts: half before the
  // measured phase (the last of these serves it) and half after it, so a
  // slow stretch of a shared machine at one end of the run cannot decide
  // the median. Every start but the serving one drains at once, and
  // every drain is checked.
  std::vector<double> starts;
  std::unique_ptr<ServerProcess> server;
  const auto start_server = [&]() {
    auto started = StartServer(args, &server);
    if (!started.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n",
                   started.status().ToString().c_str());
      return false;
    }
    starts.push_back(*started);
    return true;
  };
  const auto start_and_drain = [&]() {
    if (!start_server()) return false;
    if (Status drained = server->Drain(); !drained.ok()) {
      errors.push_back(drained.ToString());
    }
    return true;
  };
  for (int i = 0; i < kSetupStarts / 2; ++i) {
    if (!start_and_drain()) return 1;
  }
  if (!start_server()) return 1;

  const std::vector<DiscoveryRequest> warm_set = WarmSet();
  std::vector<std::string> warm_skylines;
  const Clock::time_point warm_start = Clock::now();
  const int passes = std::max(1, WorkerProcesses(args.workload));
  if (Status warmed = WarmUp(warm_set, passes, &warm_skylines); !warmed.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", warmed.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "bench_e2e: %s seed %llu: warm-up %.2f s\n",
               args.workload_name.c_str(), (unsigned long long)args.seed,
               SecondsSince(warm_start));

  RunContext ctx;
  ctx.args = &args;
  ctx.warm_set = &warm_set;
  ctx.warm_skylines = &warm_skylines;
  size_t next_cold = 0;
  PhaseLog untraced;
  PhaseLog traced;
  RunPhase(ctx, args.trace ? args.seconds / 2.0 : args.seconds, &next_cold,
           &untraced);
  if (args.trace) {
    ctx.traced = true;
    RunPhase(ctx, args.seconds / 2.0, &next_cold, &traced);
  }

  auto scraped = HttpGet("/metrics");
  std::string prometheus;
  if (!scraped.ok() || scraped->status != 200) {
    errors.push_back("GET /metrics failed");
  } else {
    prometheus = scraped->body;
  }
  // The largest process, not the sum: the pool hands cold queries to
  // whichever worker is free, so per-worker peaks (and their sum) swing
  // from run to run while the busiest worker's does not.
  double rss_mb = PeakRssMb(server->pid());
  std::string rss_parts = std::to_string(int(rss_mb));
  for (pid_t child : ChildrenOf(server->pid())) {
    const double child_mb = PeakRssMb(child);
    rss_mb = std::max(rss_mb, child_mb);
    rss_parts += ", " + std::to_string(int(child_mb));
  }
  std::fprintf(stderr, "bench_e2e: peak RSS per process, MiB: %s\n",
               rss_parts.c_str());
  if (Status drained = server->Drain(); !drained.ok()) {
    errors.push_back(drained.ToString());
  }
  BatchCheck(args, untraced, &errors);
  for (int i = 0; i < kSetupStarts / 2; ++i) {
    if (!start_and_drain()) return 1;
  }
  std::string start_ms;
  for (double start : starts) {
    start_ms += " " + std::to_string(int(start * 1e3));
  }
  std::fprintf(stderr, "bench_e2e: setup %.4f s (starts, ms:%s)\n",
               Percentile(starts, 0.5), start_ms.c_str());

  size_t attempted = untraced.attempted + traced.attempted;
  size_t failed = untraced.failed + traced.failed;
  for (const PhaseLog* log : {&untraced, &traced}) {
    errors.insert(errors.end(), log->errors.begin(), log->errors.end());
  }
  const double warm_p50 = Percentile(untraced.warm_ms, 0.5);
  if (args.trace) {
    TraceMetrics(traced, warm_p50, prometheus, &metrics);
  } else {
    metrics.Set("setup_s", Percentile(starts, 0.5), "s");
    metrics.Set("peak_rss_mb", rss_mb, "MiB");
    metrics.Set("cold_p50_ms", Percentile(untraced.cold_ms, 0.5), "ms");
    metrics.Set("cold_qps", Rate(untraced.cold_ms.size(), untraced.cold_wall_s),
                "1/s");
    metrics.Set("warm_p50_ms", warm_p50, "ms");
    metrics.Set("warm_p99_ms", Percentile(untraced.warm_ms, 0.99), "ms");
    metrics.Set("warm_qps", Rate(untraced.warm_ms.size(), untraced.warm_wall_s),
                "1/s");
    metrics.Set("skyline_hv", SkylineHypervolume(untraced), "ratio");
  }
  std::fprintf(stderr,
               "bench_e2e: %zu cold (%zu kept), %zu warm answered; %zu of "
               "%zu requests failed\n",
               untraced.cold_ms.size() + traced.cold_ms.size(),
               untraced.cold_answers.size() + traced.cold_answers.size(),
               untraced.warm_ms.size() + traced.warm_ms.size(), failed,
               attempted);
  for (const std::string& error : errors) {
    std::fprintf(stderr, "bench_e2e: CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
      correct ? "true" : "false", attempted, failed, metrics.ToJson().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  ::signal(SIGPIPE, SIG_IGN);
  return Run(args);
}
