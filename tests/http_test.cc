/// Protocol fault-injection and QoS battery of the HTTP/1.1 front door
/// (src/service/http.h) and its transport integration: the incremental
/// parser (byte-at-a-time delivery, chunked framing, pipelining, every
/// size cap), truncation at each byte boundary and single-bit-flip fuzz
/// over the head — the parser must end in a complete request, a typed
/// 4xx/5xx, or "need more bytes", never crash —, the same abuse replayed
/// over real sockets (the host survives, answers what it can with typed
/// errors, and leaks no session thread), the endpoint router, Prometheus
/// exposition parity with the JSON shutdown dump, and tenant rate
/// limiting surfacing as 429 + Retry-After. The parity, tracing, and QoS
/// tests run over both executors — session threads and worker processes
/// (this binary re-exec'ed in the worker role, which is why the suite
/// owns main()) — since one admission path serves both. The
/// `sanitize-thread` and `sanitize-address` CI jobs run this suite under
/// the sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/discovery_service.h"
#include "service/http.h"
#include "service/json.h"
#include "service/metrics.h"
#include "service/qos.h"
#include "service/transport.h"
#include "service/wire.h"
#include "service/worker.h"

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

Endpoint UnixEndpoint(const std::string& name) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = TempPath(name);
  return endpoint;
}

/// The canonical test query (same shape as tests/transport_test.cc).
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

/// Where a host's admitted queries execute.
enum class Executor { kThreads, kProcesses };

std::string ExecutorName(
    const ::testing::TestParamInfo<Executor>& info) {
  return info.param == Executor::kThreads ? "threads" : "processes";
}

/// The out-of-process executor of a host: two worker processes (this
/// binary in the worker role) with the host's execution settings, over a
/// ring of `buffer_bytes` transfer buffers. Null for Executor::kThreads.
std::unique_ptr<WorkerPool> StartWorkers(
    Executor executor, const std::string& tag,
    const DiscoveryService::Options& options,
    uint32_t buffer_bytes = WorkerPool::Options().buffer_bytes) {
  if (executor == Executor::kThreads) return nullptr;
  WorkerOptions worker;
  worker.ring_path = TempPath("http_ring_" + tag + ".shm");
  worker.service = options;
  WorkerPool::Options pool_options;
  pool_options.workers = 2;
  pool_options.ring_path = worker.ring_path;
  pool_options.buffer_bytes = buffer_bytes;
  pool_options.spawn = [worker](uint32_t index) {
    WorkerOptions spawned = worker;
    spawned.worker_index = index;
    return SpawnWorkerProcess(spawned);
  };
  std::unique_ptr<WorkerPool> pool;
  const Status started = WorkerPool::Start(pool_options, &pool);
  EXPECT_TRUE(started.ok()) << started.ToString();
  return pool;
}

/// A discovery host: the HTTP router behind a real HttpServer on every
/// endpoint, executing in process or on `workers`.
class HttpHost {
 public:
  explicit HttpHost(
      DiscoveryService::Options service_options = SmallServiceOptions(),
      HttpServer::Options server_options = HttpServer::Options(),
      std::unique_ptr<WorkerPool> workers = nullptr)
      : service_(service_options, std::move(workers)),
        server_(
            [this](const HttpRequest& request) {
              return RouteHttpRequest(&service_, request);
            },
            server_options, service_.metrics()) {}

  ~HttpHost() { Stop(); }

  Status Listen(const Endpoint& endpoint) { return server_.Listen(endpoint); }

  void Start() {
    serving_ = std::thread([this] { server_.Serve(); });
  }

  void Stop() {
    server_.RequestStop();
    if (serving_.joinable()) serving_.join();
  }

  DiscoveryService& service() { return service_; }
  const Endpoint& endpoint(size_t i = 0) const {
    return server_.endpoints().at(i);
  }

 private:
  DiscoveryService service_;
  HttpServer server_;
  std::thread serving_;
};

/// Finds `series` (a metric name, optionally with a label set, e.g.
/// `modis_tenant_shed_total{tenant="gold"}`) at the start of a line and
/// returns its sample value.
double PromValue(const std::string& exposition, const std::string& series,
                 bool* found) {
  size_t pos = 0;
  while ((pos = exposition.find(series, pos)) != std::string::npos) {
    const bool at_line_start = pos == 0 || exposition[pos - 1] == '\n';
    const size_t after = pos + series.size();
    if (at_line_start && after < exposition.size() &&
        exposition[after] == ' ') {
      *found = true;
      return std::strtod(exposition.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  *found = false;
  return 0.0;
}

// The typed statuses the front door may answer a malformed stream with.
bool IsTypedParserError(int status) {
  return status == 400 || status == 413 || status == 414 || status == 431 ||
         status == 501 || status == 505;
}

// --------------------------------------------------------- parser units

HttpParser::Limits TinyLimits() {
  HttpParser::Limits limits;
  limits.max_request_line_bytes = 128;
  limits.max_header_bytes = 256;
  limits.max_headers = 8;
  limits.max_body_bytes = 512;
  return limits;
}

TEST(HttpParserTest, ParsesRequestDeliveredOneByteAtATime) {
  const std::string wire =
      "POST /v1/query HTTP/1.1\r\n"
      "Host: example\r\n"
      "X-Api-Key: gold-key\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "hello world";
  HttpParser parser;
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_FALSE(parser.has_error()) << "at byte " << i;
    EXPECT_EQ(parser.has_request(), false) << "complete early at byte " << i;
    parser.Feed(&wire[i], 1);
  }
  ASSERT_TRUE(parser.has_request());
  const HttpRequest request = parser.TakeRequest();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/query");
  EXPECT_EQ(request.version_minor, 1);
  EXPECT_TRUE(request.keep_alive);
  EXPECT_EQ(request.body, "hello world");
  ASSERT_NE(request.FindHeader("x-api-key"), nullptr);
  EXPECT_EQ(*request.FindHeader("x-api-key"), "gold-key");
  EXPECT_FALSE(parser.has_request());
  EXPECT_FALSE(parser.has_error());
}

TEST(HttpParserTest, ParsesChunkedBodyWithExtensionsAndTrailers) {
  const std::string wire =
      "POST / HTTP/1.1\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "6;ext=1\r\n"
      "hello \r\n"
      "5\r\n"
      "world\r\n"
      "0\r\n"
      "X-Trailer: ignored\r\n"
      "\r\n";
  // Whole-buffer and byte-at-a-time delivery must agree.
  for (const size_t step : {wire.size(), size_t(1)}) {
    HttpParser parser;
    for (size_t i = 0; i < wire.size(); i += step) {
      parser.Feed(wire.data() + i, std::min(step, wire.size() - i));
    }
    ASSERT_TRUE(parser.has_request()) << "step " << step;
    const HttpRequest request = parser.TakeRequest();
    EXPECT_EQ(request.body, "hello world");
    EXPECT_EQ(request.FindHeader("x-trailer"), nullptr)
        << "trailers must be discarded";
  }
}

TEST(HttpParserTest, PipelinedRequestsComeOutInOrder) {
  HttpParser parser;
  parser.Feed(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /metrics HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.has_request());
  EXPECT_EQ(parser.TakeRequest().target, "/healthz");
  ASSERT_TRUE(parser.has_request());
  const HttpRequest second = parser.TakeRequest();
  EXPECT_EQ(second.target, "/v1/query");
  EXPECT_EQ(second.body, "hi");
  ASSERT_TRUE(parser.has_request());
  EXPECT_EQ(parser.TakeRequest().target, "/metrics");
  EXPECT_FALSE(parser.has_request());
  EXPECT_FALSE(parser.has_error());
}

TEST(HttpParserTest, KeepAliveDefaultsByVersionAndConnectionOverrides) {
  struct Case {
    const char* head;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    HttpParser parser;
    parser.Feed(c.head, std::strlen(c.head));
    ASSERT_TRUE(parser.has_request()) << c.head;
    EXPECT_EQ(parser.TakeRequest().keep_alive, c.keep_alive) << c.head;
  }
}

TEST(HttpParserTest, ToleratesBoundedLeadingBlankLines) {
  HttpParser ok;
  ok.Feed("\r\n\r\nGET / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(ok.has_request());

  HttpParser bad;
  bad.Feed("\r\n\r\n\r\n\r\n\r\n\r\nGET / HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(bad.has_error());
  EXPECT_EQ(bad.error_status(), 400);
}

TEST(HttpParserTest, RejectsMalformedRequestLinesWithTypedStatus) {
  struct Case {
    const char* wire;
    int status;
  };
  const Case cases[] = {
      {"GET /\r\n\r\n", 400},                    // No version.
      {"GET / HTTP/2.0\r\n\r\n", 505},           // Wrong major.
      {"GET / HTTP/1.x\r\n\r\n", 400},           // Malformed version.
      {"GET / HTTPS1.1\r\n\r\n", 400},           // Not HTTP/.
      {"GET noslash HTTP/1.1\r\n\r\n", 400},     // Not origin-form.
      {"G@T / HTTP/1.1\r\n\r\n", 400},           // Method not a token.
      {" / HTTP/1.1\r\n\r\n", 400},              // Empty method.
  };
  for (const Case& c : cases) {
    HttpParser parser;
    parser.Feed(c.wire, std::strlen(c.wire));
    ASSERT_TRUE(parser.has_error()) << c.wire;
    EXPECT_EQ(parser.error_status(), c.status) << c.wire;
    EXPECT_FALSE(parser.has_request());
    // Sticky: further bytes cannot resurrect the stream.
    parser.Feed("GET / HTTP/1.1\r\n\r\n");
    EXPECT_TRUE(parser.has_error()) << c.wire;
    EXPECT_FALSE(parser.has_request()) << c.wire;
  }
}

TEST(HttpParserTest, RejectsFramingAmbiguityAndBadHeaders) {
  struct Case {
    const char* wire;
    int status;
  };
  const Case cases[] = {
      // Content-Length + Transfer-Encoding: the smuggling vector.
      {"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
       "Transfer-Encoding: chunked\r\n\r\n",
       400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 501},
      {"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
       400},
      {"POST / HTTP/1.1\r\nContent-Length: 2x\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: -2\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\n: empty-name\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n", 400},  // Obs-fold.
  };
  for (const Case& c : cases) {
    HttpParser parser;
    parser.Feed(c.wire, std::strlen(c.wire));
    ASSERT_TRUE(parser.has_error()) << c.wire;
    EXPECT_EQ(parser.error_status(), c.status) << c.wire;
  }
}

TEST(HttpParserTest, RejectsMalformedChunkedFraming) {
  const char* head = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  struct Case {
    const char* rest;
    int status;
  };
  const Case cases[] = {
      {"zz\r\nhello\r\n0\r\n\r\n", 400},     // Non-hex size.
      {"\r\nhello\r\n0\r\n\r\n", 400},       // Empty size line.
      {"5\r\nhelloXX0\r\n\r\n", 400},        // Data not CRLF-terminated.
      {"5\r\nhello\rX0\r\n\r\n", 400},       // CR without LF.
  };
  for (const Case& c : cases) {
    HttpParser parser;
    parser.Feed(head, std::strlen(head));
    parser.Feed(c.rest, std::strlen(c.rest));
    ASSERT_TRUE(parser.has_error()) << c.rest;
    EXPECT_EQ(parser.error_status(), c.status) << c.rest;
  }
}

TEST(HttpParserTest, EnforcesEverySizeCapWithItsOwnStatus) {
  const HttpParser::Limits limits = TinyLimits();
  {
    HttpParser parser(limits);
    parser.Feed("GET /" + std::string(limits.max_request_line_bytes, 'a') +
                " HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(parser.has_error());
    EXPECT_EQ(parser.error_status(), 414);
  }
  {
    // An unterminated request line beyond the cap fails without ever
    // seeing a newline — the cap cannot be dodged by withholding LF.
    HttpParser parser(limits);
    parser.Feed(std::string(limits.max_request_line_bytes + 2, 'a'));
    ASSERT_TRUE(parser.has_error());
    EXPECT_EQ(parser.error_status(), 414);
  }
  {
    HttpParser parser(limits);
    parser.Feed("GET / HTTP/1.1\r\nX: " +
                std::string(limits.max_header_bytes, 'b') + "\r\n\r\n");
    ASSERT_TRUE(parser.has_error());
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    HttpParser parser(limits);
    std::string wire = "GET / HTTP/1.1\r\n";
    for (size_t i = 0; i <= limits.max_headers; ++i) {
      wire += "H" + std::to_string(i) + ": v\r\n";
    }
    wire += "\r\n";
    parser.Feed(wire);
    ASSERT_TRUE(parser.has_error());
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    HttpParser parser(limits);
    parser.Feed("POST / HTTP/1.1\r\nContent-Length: " +
                std::to_string(limits.max_body_bytes + 1) + "\r\n\r\n");
    ASSERT_TRUE(parser.has_error());
    EXPECT_EQ(parser.error_status(), 413);
  }
  {
    // Chunked bodies hit the same cap cumulatively.
    HttpParser parser(limits);
    std::string wire = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    const std::string chunk(64, 'c');
    for (size_t sent = 0; sent <= limits.max_body_bytes; sent += chunk.size()) {
      wire += "40\r\n" + chunk + "\r\n";  // 0x40 == 64.
    }
    wire += "0\r\n\r\n";
    parser.Feed(wire);
    ASSERT_TRUE(parser.has_error());
    EXPECT_EQ(parser.error_status(), 413);
  }
}

/// A prefix of a valid request must never be an error and never a
/// complete request: truncation at every byte boundary.
TEST(HttpParserTest, TruncationAtEveryByteIsNeitherErrorNorRequest) {
  const std::string wire =
      "POST /v1/query HTTP/1.1\r\n"
      "Host: h\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "12345";
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpParser parser;
    parser.Feed(wire.data(), cut);
    EXPECT_FALSE(parser.has_error())
        << "prefix of a valid request errored at byte " << cut << ": "
        << parser.error_message();
    EXPECT_FALSE(parser.has_request()) << "complete early at byte " << cut;
    // Feeding the remainder always completes it.
    parser.Feed(wire.data() + cut, wire.size() - cut);
    ASSERT_TRUE(parser.has_request()) << "stuck after resume at byte " << cut;
    EXPECT_EQ(parser.TakeRequest().body, "12345");
  }
}

/// Single-bit-flip fuzz over the request line and headers: every
/// mutation ends in a complete request, a typed error, or a wait for
/// more bytes — never a crash (ASan/TSan make this a real check).
TEST(HttpParserTest, SingleBitFlipFuzzOverHeadTerminatesTyped) {
  const std::string head =
      "POST /v1/query HTTP/1.1\r\n"
      "Host: h\r\n"
      "Content-Length: 5\r\n"
      "\r\n";
  const std::string wire = head + "12345";
  for (size_t i = 0; i < head.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = wire;
      mutated[i] = char(uint8_t(mutated[i]) ^ uint8_t(1u << bit));
      HttpParser parser;
      parser.Feed(mutated);
      if (parser.has_error()) {
        EXPECT_TRUE(IsTypedParserError(parser.error_status()))
            << "byte " << i << " bit " << bit << " -> untyped status "
            << parser.error_status();
      } else if (parser.has_request()) {
        (void)parser.TakeRequest();  // Benign mutation (e.g. case flip).
      }
      // Else: the mutation grew the framing (Content-Length digit flip);
      // the parser is waiting for bytes that never come — fine.
    }
  }
}

// ------------------------------------------------------ endpoint router

TEST(HttpRouterTest, ServesQueryHealthzMetricsAndTypedErrors) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.default_cache_path = TempPath("http_router.rlog");
  HttpHost host(options);
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_router.sock")).ok());
  host.Start();

  // POST /v1/query answers the canonical query; the scrape below rides
  // the same keep-alive connection, the only one opened so far.
  auto channel = ClientChannel::Connect(host.endpoint());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  std::string carry;
  const std::string body = SerializeDiscoveryRequest(MakeRequest("bi"));
  ASSERT_TRUE(
      channel->SendRaw(FormatHttpRequest("POST", "/v1/query", body)).ok());
  auto query = ReadHttpReply(&*channel, &carry);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->status, 200);
  ASSERT_NE(query->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*query->FindHeader("content-type"), "application/json");
  auto parsed = ParseDiscoveryResponse(query->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->skyline.empty());

  // GET /metrics is Prometheus exposition of the host's counters,
  // gauges, and histograms after the one query.
  ASSERT_TRUE(channel->SendRaw(FormatHttpRequest("GET", "/metrics")).ok());
  auto metrics = ReadHttpReply(&*channel, &carry);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status, 200);
  ASSERT_NE(metrics->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*metrics->FindHeader("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::vector<std::pair<std::string, double>> expected = {
      {"modis_accepted_total", 1.0},      {"modis_served_total", 1.0},
      {"modis_rejected_total", 0.0},      {"modis_failed_total", 0.0},
      {"modis_queue_depth", 0.0},         {"modis_live_contexts", 1.0},
      {"modis_cache_files", 1.0},         {"modis_run_ms_count", 1.0},
      {"modis_draining", 0.0},            {"modis_connections_active", 1.0},
  };
  for (const auto& [series, value] : expected) {
    bool found = false;
    EXPECT_EQ(PromValue(metrics->body, series, &found), value) << series;
    EXPECT_TRUE(found) << series;
  }
  for (const char* series :
       {"modis_cache_appends_total", "modis_cache_bytes", "modis_run_ms_sum"}) {
    bool found = false;
    EXPECT_GT(PromValue(metrics->body, series, &found), 0.0) << series;
    EXPECT_TRUE(found) << series;
  }

  // The JSON shutdown dump carries the latency quantiles the exposition
  // leaves out.
  auto dump = JsonValue::Parse(
      SerializeServiceMetrics(host.service().SnapshotMetrics()));
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const JsonValue* dump_metrics = dump->Get("metrics");
  ASSERT_NE(dump_metrics, nullptr);
  EXPECT_EQ(dump_metrics->GetNumber("connections_active", -1), 1.0);
  const JsonValue* run_ms = dump_metrics->Get("run_ms");
  ASSERT_NE(run_ms, nullptr);
  EXPECT_EQ(run_ms->GetNumber("count", -1), 1.0);
  EXPECT_GT(run_ms->GetNumber("sum_ms", -1), 0.0);
  EXPECT_GT(run_ms->GetNumber("p50_ms", -1), 0.0);
  EXPECT_GE(run_ms->GetNumber("p99_ms", -1), run_ms->GetNumber("p50_ms", -1));
  EXPECT_LE(run_ms->GetNumber("p99_ms", -1), run_ms->GetNumber("max_ms", -1));
  channel->Close();

  // GET /healthz.
  auto health = HttpExchange(host.endpoint(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  auto health_doc = JsonValue::Parse(health->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_TRUE(health_doc->GetBool("ok", false));
  EXPECT_FALSE(health_doc->GetBool("draining", true));

  // Unknown path -> 404; wrong method -> 405 with Allow; bad body -> 400.
  auto missing = HttpExchange(host.endpoint(), "GET", "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  auto wrong = HttpExchange(host.endpoint(), "GET", "/v1/query");
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(wrong->status, 405);
  ASSERT_NE(wrong->FindHeader("allow"), nullptr);
  EXPECT_EQ(*wrong->FindHeader("allow"), "POST");
  auto bad =
      HttpExchange(host.endpoint(), "POST", "/v1/query", "this is not json");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  auto bad_doc = JsonValue::Parse(bad->body);
  ASSERT_TRUE(bad_doc.ok());
  EXPECT_FALSE(bad_doc->GetBool("ok", true));
  EXPECT_EQ(bad_doc->GetString("code", ""), "InvalidArgument");

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.connections_active, 0u);
  EXPECT_EQ(snapshot.http_requests, 6u);
  EXPECT_EQ(snapshot.http_errors, 3u);
}

TEST(HttpRouterTest, KeepAliveServesPipelinedRequestsInOrder) {
  HttpHost host;
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_pipeline.sock")).ok());
  host.Start();

  auto channel = ClientChannel::Connect(host.endpoint());
  ASSERT_TRUE(channel.ok());
  // Three pipelined requests in one write; responses come back in order
  // on the same connection.
  ASSERT_TRUE(channel
                  ->SendRaw(FormatHttpRequest("GET", "/healthz") +
                            FormatHttpRequest("GET", "/metrics") +
                            FormatHttpRequest("GET", "/healthz"))
                  .ok());
  std::string carry;
  auto first = ReadHttpReply(&*channel, &carry);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, 200);
  EXPECT_NE(first->body.find("draining"), std::string::npos);
  auto second = ReadHttpReply(&*channel, &carry);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->body.find("modis_connections_opened_total"),
            std::string::npos);
  auto third = ReadHttpReply(&*channel, &carry);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->status, 200);

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.http_requests, 3u);
  EXPECT_EQ(snapshot.connections_active, 0u);
  EXPECT_EQ(snapshot.connections_opened, 1u);
}

// ------------------------------------------------- socket fault battery

TEST(HttpFaultTest, TruncatedRequestsAtEveryByteLeakNothing) {
  HttpHost host;
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_trunc.sock")).ok());
  host.Start();

  const std::string wire = FormatHttpRequest(
      "POST", "/v1/query", "{\"task\":\"T2\",\"variant\":\"bi\"}");
  size_t opened = 0;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto channel = ClientChannel::Connect(host.endpoint());
    ASSERT_TRUE(channel.ok()) << "at byte " << cut;
    ASSERT_TRUE(channel->SendRaw(wire.substr(0, cut)).ok()) << cut;
    channel->Close();  // Mid-request disconnect at every boundary.
    ++opened;
  }

  // The host is unharmed: a full request still answers.
  auto probe = HttpExchange(host.endpoint(), "GET", "/healthz");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->status, 200);
  ++opened;

  // No session thread leaks: the drain returns with nothing active.
  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.connections_active, 0u);
  EXPECT_EQ(snapshot.connections_opened, opened);
}

TEST(HttpFaultTest, SingleBitFlipFuzzOverHeadNeverKillsTheHost) {
  HttpHost host;
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_fuzz.sock")).ok());
  host.Start();

  const std::string head = FormatHttpRequest("GET", "/healthz");
  for (size_t i = 0; i < head.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = head;
      mutated[i] = char(uint8_t(mutated[i]) ^ uint8_t(1u << bit));
      auto channel = ClientChannel::Connect(host.endpoint());
      ASSERT_TRUE(channel.ok()) << "byte " << i << " bit " << bit;
      ASSERT_TRUE(channel->SendRaw(mutated).ok());
      // Don't wait for a response: some mutations leave the server
      // legitimately waiting for more bytes (a flipped newline grows
      // the framing). Whatever state the session is in, the abrupt
      // disconnect must never take the host down.
      channel->Close();
    }
  }

  auto probe = HttpExchange(host.endpoint(), "GET", "/healthz");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->status, 200);

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.connections_active, 0u);
}

TEST(HttpFaultTest, OversizedAndMalformedStreamsGetTypedErrorsThenClose) {
  HttpServer::Options server_options;
  server_options.http.max_request_line_bytes = 256;
  server_options.http.max_header_bytes = 512;
  server_options.http.max_body_bytes = 1024;
  HttpHost host(SmallServiceOptions(), server_options);
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_oversize.sock")).ok());
  host.Start();

  struct Case {
    std::string wire;
    int status;
  };
  const std::vector<Case> cases = {
      {"GET /" + std::string(300, 'a') + " HTTP/1.1\r\n\r\n", 414},
      {"GET / HTTP/1.1\r\nX: " + std::string(600, 'b') + "\r\n\r\n", 431},
      {"POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n", 413},
      {"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
       "zz\r\n",
       400},
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 501},
  };
  for (const Case& c : cases) {
    auto channel = ClientChannel::Connect(host.endpoint());
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(channel->SendRaw(c.wire).ok());
    std::string carry;
    auto reply = ReadHttpReply(&*channel, &carry);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status, c.status) << c.wire.substr(0, 60);
    ASSERT_NE(reply->FindHeader("connection"), nullptr);
    EXPECT_EQ(*reply->FindHeader("connection"), "close");
    // The connection is closed after the typed error: the stream cannot
    // be resynced.
    auto after = channel->ReceiveRaw();
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->empty()) << "connection still open after "
                                << c.status;
  }

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.connections_active, 0u);
  EXPECT_EQ(snapshot.http_errors, cases.size());
}

TEST(HttpFaultTest, MidPipelineDisconnectCompletesWhatWasRead) {
  HttpHost host;
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_middisc.sock")).ok());
  host.Start();

  {
    auto channel = ClientChannel::Connect(host.endpoint());
    ASSERT_TRUE(channel.ok());
    // Three pipelined requests; read one response, then vanish.
    ASSERT_TRUE(channel
                    ->SendRaw(FormatHttpRequest("GET", "/healthz") +
                              FormatHttpRequest("GET", "/metrics") +
                              FormatHttpRequest("GET", "/healthz"))
                    .ok());
    std::string carry;
    auto first = ReadHttpReply(&*channel, &carry);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->status, 200);
    channel->Close();
  }

  auto probe = HttpExchange(host.endpoint(), "GET", "/healthz");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->status, 200);

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.connections_active, 0u);
}

// -------------------------------------------------- exposition parity

/// Every line of a 0.0.4 exposition is a comment (`# HELP`/`# TYPE`) or
/// a `name[{labels}] value` sample with a parseable value.
void ExpectValidExposition(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const char first = line[0];
    EXPECT_TRUE((first >= 'a' && first <= 'z') ||
                (first >= 'A' && first <= 'Z') || first == '_')
        << line;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != nullptr && *end == '\0') << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

class ExpositionParityTest : public ::testing::TestWithParam<Executor> {};

/// The parity contract: GET /metrics and the JSON shutdown dump
/// (SerializeServiceMetrics) agree value-for-value over the SAME quiesced
/// snapshot — in either execution mode.
TEST_P(ExpositionParityTest, PrometheusAgreesWithJsonDumpValueForValue) {
  DiscoveryService::Options options = SmallServiceOptions();
  TenantSpec gold;
  gold.name = "gold";
  gold.api_key = "gold-key";
  gold.rate_per_s = 1000.0;
  gold.burst = 1000.0;
  gold.priority = 10;
  TenantSpec bronze;
  bronze.name = "bronze";
  bronze.api_key = "bronze-key";
  bronze.rate_per_s = 0.0;
  bronze.burst = 2.0;
  options.tenants = {gold, bronze};
  DiscoveryService service(options,
                           StartWorkers(GetParam(), "parity", options));

  DiscoveryRequest request = MakeRequest("bi");
  request.api_key = "gold-key";
  ASSERT_TRUE(service.Answer(request).ok());
  // Exhaust bronze's bucket so rate-limit counters are non-zero too.
  request.api_key = "bronze-key";
  ASSERT_TRUE(service.Answer(request).ok());
  ASSERT_TRUE(service.Answer(request).ok());
  auto limited = service.Answer(request);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(RetryAfterSeconds(limited.status()), 0.0);

  const MetricsSnapshot snapshot = service.SnapshotMetrics();
  const std::string exposition = PrometheusExposition(snapshot);
  ExpectValidExposition(exposition);

  auto wire = JsonValue::Parse(SerializeServiceMetrics(snapshot));
  ASSERT_TRUE(wire.ok());
  const JsonValue* metrics = wire->Get("metrics");
  ASSERT_NE(metrics, nullptr);

  for (const ScalarMetricDesc& desc : ScalarMetricDescriptors()) {
    bool found = false;
    const double prom = PromValue(exposition, desc.prom_name, &found);
    EXPECT_TRUE(found) << desc.prom_name;
    EXPECT_EQ(prom, metrics->GetNumber(desc.json_name, -1.0))
        << desc.json_name;
  }
  {
    bool found = false;
    EXPECT_EQ(PromValue(exposition, "modis_draining", &found), 0.0);
    EXPECT_TRUE(found);
  }
  // Every descriptor-table histogram — including the trace-derived
  // modis_phase_* family — agrees value-for-value across both surfaces.
  for (const HistogramMetricDesc& desc : HistogramMetricDescriptors()) {
    const JsonValue* json = metrics->Get(desc.json_name);
    ASSERT_NE(json, nullptr) << desc.json_name;
    bool found = false;
    EXPECT_EQ(
        PromValue(exposition, std::string(desc.prom_name) + "_count", &found),
        json->GetNumber("count", -1.0))
        << desc.json_name;
    EXPECT_TRUE(found) << desc.prom_name;
    EXPECT_DOUBLE_EQ(
        PromValue(exposition, std::string(desc.prom_name) + "_sum", &found),
        json->GetNumber("sum_ms", -1.0))
        << desc.json_name;
    EXPECT_TRUE(found) << desc.prom_name;
  }
  {
    // Phase histograms fill from the always-on recorder: all three served
    // queries must have landed in every phase family.
    bool found = false;
    EXPECT_EQ(PromValue(exposition, "modis_phase_respond_ms_count", &found),
              3.0);
    EXPECT_TRUE(found);
    EXPECT_EQ(PromValue(exposition, "modis_phase_train_ms_count", &found),
              3.0);
    EXPECT_TRUE(found);
  }
  const JsonValue* tenants = metrics->Get("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_TRUE(tenants->is_array());
  ASSERT_EQ(tenants->AsArray().size(), 3u);  // gold, bronze, anonymous.
  for (const JsonValue& tenant : tenants->AsArray()) {
    const std::string name = tenant.GetString("name", "");
    for (const TenantMetricDesc& desc : TenantMetricDescriptors()) {
      bool found = false;
      const double prom =
          PromValue(exposition,
                    std::string(desc.prom_name) + "{tenant=\"" + name + "\"}",
                    &found);
      EXPECT_TRUE(found) << desc.prom_name << " for " << name;
      EXPECT_EQ(prom, tenant.GetNumber(desc.json_name, -1.0))
          << desc.json_name << " for " << name;
    }
  }
  // Spot-check the counters are what this scenario must have produced.
  bool found = false;
  EXPECT_EQ(PromValue(exposition, "modis_qos_rate_limited_total", &found),
            1.0);
  EXPECT_EQ(
      PromValue(exposition, "modis_tenant_admitted_total{tenant=\"gold\"}",
                &found),
      1.0);
  EXPECT_EQ(
      PromValue(exposition,
                "modis_tenant_rate_limited_total{tenant=\"bronze\"}", &found),
      1.0);
  EXPECT_EQ(PromValue(exposition, "modis_served_total", &found), 3.0);
  EXPECT_EQ(PromValue(exposition, "modis_worker_processes", &found),
            GetParam() == Executor::kProcesses ? 2.0 : 0.0);
}

INSTANTIATE_TEST_SUITE_P(Executors, ExpositionParityTest,
                         ::testing::Values(Executor::kThreads,
                                           Executor::kProcesses),
                         ExecutorName);

// ------------------------------------------------------ tracing over HTTP

/// True when `span` is `root` or one of its descendants.
bool DescendsFrom(const std::vector<TraceSpan>& spans, const TraceSpan& span,
                  SpanId root) {
  for (SpanId id = span.id; id != kNoSpan;) {
    if (id == root) return true;
    if (id < 0 || size_t(id) >= spans.size()) return false;
    id = spans[size_t(id)].parent;
  }
  return false;
}

class HttpTraceTest : public ::testing::TestWithParam<Executor> {};

/// The HTTP face of the tracing tentpole: `X-Modis-Request-Id` on every
/// answered query (matching the body's `request_id`), `X-Modis-Trace: 1`
/// switching on the inline span tree, and `GET /v1/debug/traces` serving
/// the ring as Chrome trace_event JSON that names BOTH queries — the
/// recorder is always on; the header only gates the inline echo. The
/// host mints the ids and roots the tree in either execution mode: a
/// worker's context/run/train spans sit under the host's query root.
TEST_P(HttpTraceTest, TraceHeaderRequestIdAndDebugEndpoint) {
  const std::string tag = ExecutorName({GetParam(), 0});
  DiscoveryService::Options options = SmallServiceOptions();
  options.default_cache_path = TempPath("http_trace_" + tag + ".rlog");
  HttpHost host(options, HttpServer::Options(),
                StartWorkers(GetParam(), "trace_" + tag, options));
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_trace_" + tag + ".sock")).ok());
  host.Start();

  const std::string body = SerializeDiscoveryRequest(MakeRequest("bi"));

  // An untraced query carries a request id in header and body but no
  // span tree.
  auto plain = HttpExchange(host.endpoint(), "POST", "/v1/query", body);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->status, 200);
  const std::string* plain_id = plain->FindHeader("x-modis-request-id");
  ASSERT_NE(plain_id, nullptr);
  EXPECT_EQ(*plain_id, "q-000001");
  auto plain_parsed = ParseDiscoveryResponse(plain->body);
  ASSERT_TRUE(plain_parsed.ok()) << plain_parsed.status().ToString();
  EXPECT_EQ(plain_parsed->request_id, *plain_id);
  EXPECT_TRUE(plain_parsed->trace_spans.empty());

  // X-Modis-Trace: 1 turns on the inline span tree (warm-path answer
  // identity under tracing is covered in tests/service_test.cc).
  auto traced = HttpExchange(host.endpoint(), "POST", "/v1/query", body,
                             "X-Modis-Trace: 1\r\n");
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->status, 200);
  const std::string* traced_id = traced->FindHeader("x-modis-request-id");
  ASSERT_NE(traced_id, nullptr);
  EXPECT_NE(*traced_id, *plain_id);
  auto traced_parsed = ParseDiscoveryResponse(traced->body);
  ASSERT_TRUE(traced_parsed.ok()) << traced_parsed.status().ToString();
  EXPECT_EQ(traced_parsed->request_id, *traced_id);
  const std::vector<TraceSpan>& spans = traced_parsed->trace_spans;
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, "query");
  for (const char* phase : {"admission", "context", "run", "train",
                            "respond"}) {
    const auto it = std::find_if(
        spans.begin(), spans.end(),
        [phase](const TraceSpan& span) { return span.name == phase; });
    ASSERT_NE(it, spans.end()) << phase;
    EXPECT_TRUE(DescendsFrom(spans, *it, spans[0].id)) << phase;
  }

  // GET /v1/debug/traces serves Chrome trace_event JSON whose process
  // metadata names both request ids.
  auto debug = HttpExchange(host.endpoint(), "GET", "/v1/debug/traces");
  ASSERT_TRUE(debug.ok()) << debug.status().ToString();
  EXPECT_EQ(debug->status, 200);
  ASSERT_NE(debug->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*debug->FindHeader("content-type"), "application/json");
  auto debug_doc = JsonValue::Parse(debug->body);
  ASSERT_TRUE(debug_doc.ok()) << debug_doc.status().ToString();
  EXPECT_TRUE(debug_doc->GetBool("ok", false));
  const JsonValue* events = debug_doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_plain = false;
  bool saw_traced = false;
  for (const JsonValue& event : events->AsArray()) {
    if (event.GetString("ph", "") != "M") continue;
    const JsonValue* args = event.Get("args");
    ASSERT_NE(args, nullptr);
    const std::string process = args->GetString("name", "");
    if (process.find(*plain_id) != std::string::npos) saw_plain = true;
    if (process.find(*traced_id) != std::string::npos) saw_traced = true;
  }
  EXPECT_TRUE(saw_plain) << "untraced queries must still reach the ring";
  EXPECT_TRUE(saw_traced);

  // The debug surface is GET-only.
  auto wrong = HttpExchange(host.endpoint(), "POST", "/v1/debug/traces", "{}");
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(wrong->status, 405);
  ASSERT_NE(wrong->FindHeader("allow"), nullptr);
  EXPECT_EQ(*wrong->FindHeader("allow"), "GET");

  host.Stop();
}

INSTANTIATE_TEST_SUITE_P(Executors, HttpTraceTest,
                         ::testing::Values(Executor::kThreads,
                                           Executor::kProcesses),
                         ExecutorName);

/// The skyline part of an answer, serialized canonically.
std::string SkylineBytes(const DiscoveryResponse& response) {
  DiscoveryResponse skyline;
  skyline.measure_names = response.measure_names;
  skyline.skyline = response.skyline;
  return SerializeDiscoveryResponse(skyline);
}

/// A span tree never fails an answer: a worker whose traced response
/// would overflow the ring's slot buffer drops the per-training "exact"
/// leaves (counted on their "train" parent) rather than the answer. The
/// buffer is sized from an in-process execution of the same cold query:
/// above the document without those leaves, below the full one.
TEST(HttpTraceTest, OversizedSpanTreeNeverFailsTheAnswer) {
  const DiscoveryRequest request = MakeRequest("bi");
  const DiscoveryService::Options options = SmallServiceOptions();
  DiscoveryService reference(options);
  TraceRecorder trace;
  auto expected = reference.Execute(request, &trace, kNoSpan);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  DiscoveryResponse document = expected.value();
  document.trace_spans = trace.Snapshot();
  const int64_t exact_spans = std::count_if(
      document.trace_spans.begin(), document.trace_spans.end(),
      [](const TraceSpan& span) { return span.name == "exact"; });
  const size_t full = SerializeDiscoveryResponse(document).size();
  document.trace_spans = DropLeafSpans(document.trace_spans, "exact");
  const size_t pruned = SerializeDiscoveryResponse(document).size();
  ASSERT_LT(pruned + 1024, full) << "too few exact spans to size a buffer";
  const uint32_t buffer_bytes = uint32_t((pruned + full) / 2);

  HttpHost host(options, HttpServer::Options(),
                StartWorkers(Executor::kProcesses, "oversized", options,
                             buffer_bytes));
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_oversized.sock")).ok());
  host.Start();
  auto reply = HttpExchange(host.endpoint(), "POST", "/v1/query",
                            SerializeDiscoveryRequest(request),
                            "X-Modis-Trace: 1\r\n");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->status, 200) << reply->body;
  auto answer = ParseDiscoveryResponse(reply->body);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(SkylineBytes(answer.value()), SkylineBytes(expected.value()));
  int64_t dropped = 0;
  for (const TraceSpan& span : answer->trace_spans) {
    EXPECT_NE(span.name, "exact");
    for (const auto& [key, value] : span.attrs) {
      if (key == "exact_dropped") dropped += value;
    }
  }
  EXPECT_EQ(dropped, exact_spans);
  host.Stop();
}

// --------------------------------------------------------- QoS over HTTP

class HttpQosTest : public ::testing::TestWithParam<Executor> {};

TEST_P(HttpQosTest, RateLimitedTenantGets429WithRetryAfter) {
  const std::string tag = ExecutorName({GetParam(), 0});
  DiscoveryService::Options options = SmallServiceOptions();
  TenantSpec bronze;
  bronze.name = "bronze";
  bronze.api_key = "bronze-key";
  bronze.rate_per_s = 0.0;  // Never refills: deterministic burst-then-429.
  bronze.burst = 2.0;
  options.tenants = {bronze};
  HttpHost host(options, HttpServer::Options(),
                StartWorkers(GetParam(), "qos_" + tag, options));
  ASSERT_TRUE(host.Listen(UnixEndpoint("http_qos_" + tag + ".sock")).ok());
  host.Start();

  const std::string body = SerializeDiscoveryRequest(MakeRequest("bi"));
  const std::string key = "X-Api-Key: bronze-key\r\n";
  for (int i = 0; i < 2; ++i) {
    auto reply = HttpExchange(host.endpoint(), "POST", "/v1/query", body, key);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status, 200) << "request " << i;
  }
  auto limited = HttpExchange(host.endpoint(), "POST", "/v1/query", body, key);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited->status, 429);
  ASSERT_NE(limited->FindHeader("retry-after"), nullptr);
  EXPECT_GE(std::atoi(limited->FindHeader("retry-after")->c_str()), 1);
  auto doc = JsonValue::Parse(limited->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("code", ""), "ResourceExhausted");
  EXPECT_GT(doc->GetNumber("retry_after_s", 0.0), 0.0);

  // An unknown key lands on the unlimited anonymous tenant: still served.
  auto anonymous = HttpExchange(host.endpoint(), "POST", "/v1/query", body,
                                "X-Api-Key: who\r\n");
  ASSERT_TRUE(anonymous.ok());
  EXPECT_EQ(anonymous->status, 200);

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.qos_rate_limited, 1u);
  ASSERT_EQ(snapshot.tenants.size(), 2u);
  EXPECT_EQ(snapshot.tenants[0].name, "bronze");
  EXPECT_EQ(snapshot.tenants[0].admitted, 2u);
  EXPECT_EQ(snapshot.tenants[0].rate_limited, 1u);
  EXPECT_EQ(snapshot.tenants[0].served, 2u);
  EXPECT_EQ(snapshot.tenants[0].in_flight, 0u);
  EXPECT_EQ(snapshot.tenants[1].name, "anonymous");
  EXPECT_EQ(snapshot.tenants[1].admitted, 1u);
  EXPECT_EQ(snapshot.accepted, 3u);
  EXPECT_EQ(snapshot.served, 3u);
}

INSTANTIATE_TEST_SUITE_P(Executors, HttpQosTest,
                         ::testing::Values(Executor::kThreads,
                                           Executor::kProcesses),
                         ExecutorName);

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
