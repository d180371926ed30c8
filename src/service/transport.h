#ifndef MODIS_SERVICE_TRANSPORT_H_
#define MODIS_SERVICE_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/http.h"
#include "service/metrics.h"

namespace modis {

/// A serving address of the discovery host: a unix-domain socket path or
/// a TCP host:port. Both speak HTTP/1.1 (docs/SERVING.md §1) through the
/// same accept loop (HttpServer).
struct Endpoint {
  enum class Kind { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;   // kUnix.
  std::string host;   // kTcp; numeric IPv4 or "localhost".
  uint16_t port = 0;  // kTcp; 0 = ephemeral, resolved at bind.

  std::string ToString() const;  // "unix:PATH" | "tcp:HOST:PORT".
};

/// Parses the user-facing endpoint spelling, shared by `modis_server
/// --listen` and `modis_cli --connect`:
///
///   "unix:PATH"                      explicit unix socket
///   "tcp:HOST:PORT"                  explicit TCP
///   "HOST:PORT"                      TCP shorthand
///   anything else (e.g. "/a.sock")   unix socket path
Result<Endpoint> ParseEndpoint(const std::string& spec);

/// Client side of one connection: raw bytes in and out, no framing (HTTP
/// framing lives in service/http.h: ReadHttpReply). Move-only; the
/// destructor closes the socket.
class ClientChannel {
 public:
  static Result<ClientChannel> Connect(const Endpoint& endpoint);

  ClientChannel() = default;
  ~ClientChannel();
  ClientChannel(ClientChannel&& other) noexcept;
  ClientChannel& operator=(ClientChannel&& other) noexcept;
  ClientChannel(const ClientChannel&) = delete;
  ClientChannel& operator=(const ClientChannel&) = delete;

  /// Writes exactly `bytes`.
  Status SendRaw(const std::string& bytes);

  /// Reads up to `max_bytes` raw bytes, blocking until at least one
  /// arrives; a clean EOF returns the empty string.
  Result<std::string> ReceiveRaw(size_t max_bytes = 4096);

  void Close();

 private:
  explicit ClientChannel(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// The HTTP/1.1 accept loop of the discovery host. Listens on any number
/// of endpoints (unix and TCP side by side), serves each connection on its
/// own thread through the incremental HttpParser (keep-alive and
/// pipelining), and owns the graceful-drain choreography:
///
///   RequestStop() — async-signal-safe (one write(2) to an internal
///   pipe), so a SIGTERM handler may call it directly — makes Serve():
///     1. stop accepting (listeners closed, unix paths unlinked),
///     2. half-close every open connection (shutdown(SHUT_RD)): a
///        session blocked reading gets EOF, a session mid-request still
///        writes its response — accepted work is completed, not dropped,
///     3. join every connection thread, then return.
///
/// Malformed or over-limit input (anything that is not HTTP/1.x, too)
/// is answered with one typed 4xx/5xx and a close — the stream cannot be
/// resynced; a client that disconnects mid-request or mid-response never
/// takes the host down. Both paths are counted in ServiceMetrics and
/// exercised by tests/http_test.cc and tests/transport_test.cc.
class HttpServer {
 public:
  struct Options {
    int listen_backlog;
    /// Parser caps applied to every connection.
    HttpParser::Limits http;

    /// (Initialized here: an inline default would make `Options()` as a
    /// default argument of the enclosing class's own constructor
    /// ill-formed.)
    Options() : listen_backlog(16) {}
  };

  /// Maps one parsed request to one response. Runs on the connection's
  /// thread; must be thread-safe (RouteHttpRequest is).
  using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(HttpHandler handler, Options options = Options(),
             ServiceMetrics* metrics = nullptr);
  /// Implies RequestStop(); joins any still-running connection threads.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds + listens. May be called repeatedly to serve several endpoints
  /// from one accept loop. TCP port 0 is resolved to the kernel-assigned
  /// port, visible through endpoints().
  Status Listen(const Endpoint& endpoint);

  /// The bound endpoints, in Listen() order.
  const std::vector<Endpoint>& endpoints() const { return endpoints_; }

  /// Blocking accept loop; returns once RequestStop() was called and the
  /// drain completed (every accepted request answered, every connection
  /// thread joined).
  void Serve();

  /// Stops Serve() and starts the drain. Async-signal-safe; idempotent.
  void RequestStop();

 private:
  /// Runs ServeRequests(), then closes `fd` and files the thread for
  /// reaping.
  void ServeConnection(uint64_t id, int fd);
  /// One connection's keep-alive/pipelining loop until close, parse
  /// error (answered with a typed 4xx/5xx, then close), or EOF.
  void ServeRequests(int fd);
  /// Joins connection threads that have finished. Caller holds conn_mu_.
  void ReapFinishedLocked();

  HttpHandler handler_;
  Options options_;
  ServiceMetrics* metrics_;  // Never null (falls back to an owned one).
  ServiceMetrics owned_metrics_;

  std::vector<int> listener_fds_;
  std::vector<Endpoint> endpoints_;
  int stop_pipe_[2] = {-1, -1};

  std::mutex conn_mu_;
  std::map<uint64_t, std::thread> threads_;
  std::map<uint64_t, int> live_fds_;
  std::vector<uint64_t> finished_;
  uint64_t next_id_ = 0;
  bool draining_ = false;
};

}  // namespace modis

#endif  // MODIS_SERVICE_TRANSPORT_H_
