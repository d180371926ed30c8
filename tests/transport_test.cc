/// Concurrency and fault-injection battery of the serving transport
/// (src/service/transport.h): endpoint grammar, malformed and
/// out-of-range request bodies, a non-HTTP first line, TCP-vs-unix answer
/// equivalence, and the graceful-drain contract (stop mid-stream with
/// in-flight queries => every accepted request is answered, identically
/// to an undisturbed run, and no session thread leaks). HTTP framing
/// faults are tests/http_test.cc's. The `sanitize-thread` and
/// `sanitize-address` CI jobs run this suite under the sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/discovery_service.h"
#include "service/http.h"
#include "service/json.h"
#include "service/metrics.h"
#include "service/transport.h"
#include "service/wire.h"

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

Endpoint TcpAnyPort() {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kTcp;
  endpoint.host = "127.0.0.1";
  endpoint.port = 0;  // Resolved at bind.
  return endpoint;
}

/// The canonical test query (same shape as tests/service_test.cc): T2 at
/// a small budget, wall-clock measures excluded so answers are
/// bit-reproducible.
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

/// An in-process discovery host behind a real HttpServer: the service,
/// the endpoint router, and a background accept loop. Stop() (or the
/// destructor) runs the drain and joins.
class TestHost {
 public:
  explicit TestHost(
      DiscoveryService::Options service_options = SmallServiceOptions())
      : service_(service_options),
        server_(
            [this](const HttpRequest& request) {
              return RouteHttpRequest(&service_, request);
            },
            HttpServer::Options(), service_.metrics()) {}

  ~TestHost() { Stop(); }

  Status Listen(const Endpoint& endpoint) { return server_.Listen(endpoint); }

  void Start() {
    serving_ = std::thread([this] { server_.Serve(); });
  }

  /// Requests the drain and waits for Serve() to return. Idempotent.
  void Stop() {
    server_.RequestStop();
    if (serving_.joinable()) serving_.join();
  }

  DiscoveryService& service() { return service_; }
  HttpServer& server() { return server_; }
  const Endpoint& endpoint(size_t i = 0) const {
    return server_.endpoints().at(i);
  }

 private:
  DiscoveryService service_;
  HttpServer server_;
  std::thread serving_;
};

/// Sends one query on an open keep-alive connection and decodes the
/// answer body (a non-200 reply decodes into its transported Status).
Result<DiscoveryResponse> Query(ClientChannel* channel,
                                const DiscoveryRequest& request) {
  MODIS_RETURN_IF_ERROR(channel->SendRaw(FormatHttpRequest(
      "POST", "/v1/query", SerializeDiscoveryRequest(request))));
  std::string carry;
  MODIS_ASSIGN_OR_RETURN(HttpReply reply, ReadHttpReply(channel, &carry));
  return ParseDiscoveryResponse(reply.body);
}

void ExpectSameSkylines(const DiscoveryResponse& a,
                        const DiscoveryResponse& b) {
  ASSERT_EQ(a.skyline.size(), b.skyline.size());
  ASSERT_FALSE(a.skyline.empty());
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
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].signature, rows_b[i].signature);
    ASSERT_EQ(rows_a[i].raw.size(), rows_b[i].raw.size());
    // Exact: the JSON codec round-trips doubles bit for bit.
    for (size_t j = 0; j < rows_a[i].raw.size(); ++j) {
      EXPECT_EQ(rows_a[i].raw[j], rows_b[i].raw[j]);
      EXPECT_EQ(rows_a[i].normalized[j], rows_b[i].normalized[j]);
    }
  }
}

// ------------------------------------------------------------- endpoints

TEST(EndpointTest, ParsesEverySpellingOfTheGrammar) {
  auto unix_explicit = ParseEndpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_explicit.ok());
  EXPECT_EQ(unix_explicit->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_explicit->path, "/tmp/x.sock");
  EXPECT_EQ(unix_explicit->ToString(), "unix:/tmp/x.sock");

  auto unix_bare = ParseEndpoint("/var/run/modis.sock");
  ASSERT_TRUE(unix_bare.ok());
  EXPECT_EQ(unix_bare->kind, Endpoint::Kind::kUnix);

  auto tcp_explicit = ParseEndpoint("tcp:127.0.0.1:7077");
  ASSERT_TRUE(tcp_explicit.ok());
  EXPECT_EQ(tcp_explicit->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_explicit->host, "127.0.0.1");
  EXPECT_EQ(tcp_explicit->port, 7077);
  EXPECT_EQ(tcp_explicit->ToString(), "tcp:127.0.0.1:7077");

  auto tcp_short = ParseEndpoint("localhost:9000");
  ASSERT_TRUE(tcp_short.ok());
  EXPECT_EQ(tcp_short->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_short->host, "localhost");
  EXPECT_EQ(tcp_short->port, 9000);

  // A relative socket file name (no '/', no ':') is a unix path too.
  auto relative = ParseEndpoint("modis.sock");
  ASSERT_TRUE(relative.ok());
  EXPECT_EQ(relative->kind, Endpoint::Kind::kUnix);
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "unix:", "tcp:", "tcp:nohost", "tcp:host:",
                          "tcp:host:99999", "tcp:host:12x4", "tcp::80",
                          "host:port"}) {
    EXPECT_FALSE(ParseEndpoint(bad).ok()) << bad;
  }
}

// -------------------------------------------------------- fault injection

TEST(TransportFaultTest,
     MalformedAndOutOfRangeBodiesGetErrorsOnOneLiveConnection) {
  TestHost host;
  ASSERT_TRUE(host.Listen(UnixEndpoint("fault_basic.sock")).ok());
  host.Start();

  auto channel = ClientChannel::Connect(host.endpoint());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();

  const std::vector<std::string> bad_bodies = {
      "this is not json",
      "{\"task\":",                          // Truncated document.
      "[1,2,3]",                             // Not an object.
      "{\"variant\":\"bi\"}",                // Missing task.
      "{\"task\":\"T2\",\"budget\":1e300}",  // Out-of-range count.
      "{\"task\":\"T2\",\"budget\":-4}",     // Negative count.
      "{\"task\":\"T2\",\"maxl\":2.5}",      // Non-integer count.
      "{\"task\":\"T2\",\"epsilon\":-1}",    // Out-of-range epsilon.
      "{\"task\":\"T2\",\"alpha\":7}",       // Out-of-range alpha.
      "{\"task\":\"T2\",\"seed\":1e17}",     // Seed beyond 2^53.
  };
  std::string carry;
  for (const std::string& body : bad_bodies) {
    ASSERT_TRUE(
        channel->SendRaw(FormatHttpRequest("POST", "/v1/query", body)).ok())
        << body;
    auto reply = ReadHttpReply(&*channel, &carry);
    ASSERT_TRUE(reply.ok()) << "connection died after: " << body;
    EXPECT_EQ(reply->status, 400) << body;
    auto doc = JsonValue::Parse(reply->body);
    ASSERT_TRUE(doc.ok()) << reply->body;
    EXPECT_FALSE(doc->GetBool("ok", true)) << body;
    EXPECT_EQ(doc->GetString("code", ""), "InvalidArgument") << body;
  }

  // The connection survived the whole barrage: a valid request still
  // works on it.
  ASSERT_TRUE(channel->SendRaw(FormatHttpRequest("GET", "/healthz")).ok());
  auto health = ReadHttpReply(&*channel, &carry);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.connections_active, 0u);
  EXPECT_EQ(snapshot.connections_opened, 1u);
  EXPECT_EQ(snapshot.http_requests, bad_bodies.size() + 1);
  EXPECT_EQ(snapshot.http_errors, bad_bodies.size());
  EXPECT_EQ(snapshot.accepted, 0u) << "a bad body reached the service";
}

/// One protocol: a client speaking anything but HTTP/1.x — here a bare
/// JSON request line — gets one typed 400 and a close, and the host keeps
/// serving.
TEST(TransportFaultTest, NonHttpFirstLineGetsTyped400AndClose) {
  TestHost host;
  ASSERT_TRUE(host.Listen(UnixEndpoint("fault_nonhttp.sock")).ok());
  host.Start();

  {
    auto channel = ClientChannel::Connect(host.endpoint());
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE(channel->SendRaw("{\"task\":\"T2\"}\n").ok());
    std::string carry;
    auto reply = ReadHttpReply(&*channel, &carry);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->status, 400);
    ASSERT_NE(reply->FindHeader("connection"), nullptr);
    EXPECT_EQ(*reply->FindHeader("connection"), "close");
    auto doc = JsonValue::Parse(reply->body);
    ASSERT_TRUE(doc.ok()) << reply->body;
    EXPECT_FALSE(doc->GetBool("ok", true));
    EXPECT_EQ(doc->GetNumber("status", 0), 400.0);
    // Closed after the typed error: the next read is EOF.
    auto after = channel->ReceiveRaw();
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->empty()) << "connection still open";
  }

  // The next connection is served normally.
  auto probe = HttpExchange(host.endpoint(), "GET", "/healthz");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->status, 200);

  host.Stop();
  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.connections_active, 0u);
  EXPECT_EQ(snapshot.connections_opened, 2u);
  EXPECT_EQ(snapshot.http_errors, 1u);
  EXPECT_EQ(snapshot.accepted, 0u);
}

// ----------------------------------------------------- TCP == unix answers

TEST(TransportTest, TcpAndUnixTransportsServeIdenticalWarmAnswers) {
  DiscoveryService::Options options = SmallServiceOptions();
  options.default_cache_path = TempPath("tcp_unix.rlog");
  TestHost host(options);
  ASSERT_TRUE(host.Listen(UnixEndpoint("tcp_unix.sock")).ok());
  ASSERT_TRUE(host.Listen(TcpAnyPort()).ok());
  ASSERT_EQ(host.server().endpoints().size(), 2u);
  EXPECT_NE(host.endpoint(1).port, 0) << "ephemeral port not resolved";
  host.Start();

  const DiscoveryRequest request = MakeRequest("bi");

  // Cold over unix: trains and records.
  auto unix_channel = ClientChannel::Connect(host.endpoint(0));
  ASSERT_TRUE(unix_channel.ok());
  auto cold = Query(&*unix_channel, request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->exact_evals, 0u);

  // Warm over unix (same keep-alive connection) and over TCP: both
  // replay everything and answer byte-identically.
  auto warm_unix = Query(&*unix_channel, request);
  ASSERT_TRUE(warm_unix.ok()) << warm_unix.status().ToString();
  auto tcp_channel = ClientChannel::Connect(host.endpoint(1));
  ASSERT_TRUE(tcp_channel.ok()) << tcp_channel.status().ToString();
  auto warm_tcp = Query(&*tcp_channel, request);
  ASSERT_TRUE(warm_tcp.ok()) << warm_tcp.status().ToString();
  for (const DiscoveryResponse* warm : {&*warm_unix, &*warm_tcp}) {
    EXPECT_EQ(warm->exact_evals, 0u);
    EXPECT_EQ(warm->persistent_hits, cold->exact_evals);
    ExpectSameSkylines(*cold, *warm);
  }
  ExpectSameSkylines(*warm_unix, *warm_tcp);

  host.Stop();
}

// ------------------------------------------------------------------ drain

/// The lifecycle acceptance gate: 4 concurrent clients with in-flight
/// queries, stop requested mid-stream (exactly what the SIGTERM handler
/// triggers), and every accepted request still gets its full answer —
/// byte-identical to an undisturbed run — before Serve() returns.
TEST(TransportDrainTest, StopMidStreamCompletesAllAcceptedWork) {
  const std::vector<std::string> variants = {"apx", "nobi", "bi", "div"};

  // Undisturbed reference: same service shape, no transport, no drain.
  std::vector<DiscoveryResponse> reference;
  {
    DiscoveryService::Options options = SmallServiceOptions();
    options.sessions = 4;
    DiscoveryService service(options);
    ASSERT_TRUE(service.Preload("T2").ok());
    for (const std::string& variant : variants) {
      auto response = service.Answer(MakeRequest(variant));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      reference.push_back(std::move(response).value());
    }
  }

  DiscoveryService::Options options = SmallServiceOptions();
  options.sessions = 4;
  TestHost host(options);
  ASSERT_TRUE(host.Listen(UnixEndpoint("drain.sock")).ok());
  host.Start();
  ASSERT_TRUE(host.service().Preload("T2").ok());

  // 4 clients send their requests, then block on the response.
  std::vector<Result<HttpReply>> replies(
      variants.size(), Result<HttpReply>(Status::Internal("unset")));
  std::vector<std::thread> clients;
  std::atomic<size_t> sent{0};
  for (size_t i = 0; i < variants.size(); ++i) {
    clients.emplace_back([&, i] {
      auto channel = ClientChannel::Connect(host.endpoint());
      if (!channel.ok()) {
        replies[i] = channel.status();
        sent.fetch_add(1);
        return;
      }
      const Status submitted = channel->SendRaw(FormatHttpRequest(
          "POST", "/v1/query",
          SerializeDiscoveryRequest(MakeRequest(variants[i]))));
      sent.fetch_add(1);
      if (!submitted.ok()) {
        replies[i] = submitted;
        return;
      }
      std::string carry;
      replies[i] = ReadHttpReply(&*channel, &carry);
    });
  }

  // Stop once every request is on the wire and accepted by the service —
  // the queries are genuinely in flight at that point.
  while (sent.load() < variants.size()) {
    std::this_thread::yield();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (host.service().stats().accepted < variants.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(host.service().stats().accepted, variants.size());
  host.server().RequestStop();

  for (std::thread& client : clients) client.join();
  host.Stop();  // Serve() has already returned; join its thread.

  // Every accepted request was answered in full, identically to the
  // undisturbed run.
  for (size_t i = 0; i < variants.size(); ++i) {
    ASSERT_TRUE(replies[i].ok())
        << variants[i] << ": " << replies[i].status().ToString();
    EXPECT_EQ(replies[i]->status, 200) << variants[i];
    auto response = ParseDiscoveryResponse(replies[i]->body);
    ASSERT_TRUE(response.ok())
        << variants[i] << ": " << response.status().ToString();
    ExpectSameSkylines(reference[i], *response);
  }

  const MetricsSnapshot snapshot = host.service().SnapshotMetrics();
  EXPECT_EQ(snapshot.served, variants.size());
  EXPECT_EQ(snapshot.failed, 0u);
  EXPECT_EQ(snapshot.queue_depth, 0u);
  EXPECT_EQ(snapshot.connections_active, 0u);
  EXPECT_TRUE(snapshot.draining);

  // A post-drain connection attempt is refused: the listener is gone.
  EXPECT_FALSE(ClientChannel::Connect(host.endpoint()).ok());
}

}  // namespace
}  // namespace modis
