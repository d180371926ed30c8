#include "service/transport.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace modis {

namespace {

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;  // EPIPE instead of SIGPIPE.
#else
constexpr int kSendFlags = 0;
#endif

bool ParsePort(const std::string& text, uint16_t* port) {
  if (text.empty() || text.size() > 5) return false;
  uint32_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + uint32_t(c - '0');
  }
  if (value > 65535) return false;
  *port = uint16_t(value);
  return true;
}

Result<Endpoint> ParseTcpSpec(const std::string& spec,
                              const std::string& rest) {
  const size_t colon = rest.rfind(':');
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kTcp;
  if (colon == std::string::npos || colon == 0 ||
      !ParsePort(rest.substr(colon + 1), &endpoint.port)) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "' is not HOST:PORT (port 0..65535)");
  }
  endpoint.host = rest.substr(0, colon);
  return endpoint;
}

}  // namespace

std::string Endpoint::ToString() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  if (spec.empty()) return Status::InvalidArgument("empty endpoint");
  if (spec.rfind("unix:", 0) == 0) {
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      return Status::InvalidArgument("endpoint '" + spec +
                                     "' is missing the socket path");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) return ParseTcpSpec(spec, spec.substr(4));
  if (spec.find('/') != std::string::npos) {
    Endpoint endpoint;
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = spec;
    return endpoint;
  }
  if (spec.find(':') != std::string::npos) return ParseTcpSpec(spec, spec);
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = spec;
  return endpoint;
}

namespace {

Result<in_addr> ResolveHost(const std::string& host, bool for_bind) {
  std::string name = host;
  if (name.empty()) name = for_bind ? "0.0.0.0" : "127.0.0.1";
  if (name == "localhost") name = "127.0.0.1";
  in_addr addr{};
  if (::inet_pton(AF_INET, name.c_str(), &addr) != 1) {
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "' (numeric IPv4 or localhost)");
  }
  return addr;
}

Result<int> OpenSocket(const Endpoint& endpoint) {
  const int family =
      endpoint.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  return fd;
}

Status FillUnixAddr(const std::string& path, sockaddr_un* addr) {
  *addr = sockaddr_un{};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::strncpy(addr->sun_path, path.c_str(), sizeof(addr->sun_path) - 1);
  return Status::OK();
}

bool WriteAllFd(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, kSendFlags);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += size_t(n);
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------ ClientChannel

Result<ClientChannel> ClientChannel::Connect(const Endpoint& endpoint) {
  MODIS_ASSIGN_OR_RETURN(const int fd, OpenSocket(endpoint));
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (Status filled = FillUnixAddr(endpoint.path, &addr); !filled.ok()) {
      ::close(fd);
      return filled;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      return Status::IoError("cannot connect to " + endpoint.ToString() +
                             ": " + std::strerror(errno));
    }
    return ClientChannel(fd);
  }
  auto host = ResolveHost(endpoint.host, /*for_bind=*/false);
  if (!host.ok()) {
    ::close(fd);
    return host.status();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  addr.sin_addr = host.value();
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::IoError("cannot connect to " + endpoint.ToString() +
                           ": " + std::strerror(errno));
  }
  return ClientChannel(fd);
}

ClientChannel::~ClientChannel() { Close(); }

ClientChannel::ClientChannel(ClientChannel&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

ClientChannel& ClientChannel::operator=(ClientChannel&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status ClientChannel::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("channel is closed");
  if (!WriteAllFd(fd_, bytes)) {
    return Status::IoError("send failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Result<std::string> ClientChannel::ReceiveRaw(size_t max_bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("channel is closed");
  std::string out(max_bytes, '\0');
  for (;;) {
    const ssize_t n = ::recv(fd_, &out[0], max_bytes, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IoError("recv failed: " +
                             std::string(std::strerror(errno)));
    }
    out.resize(size_t(n));
    return out;
  }
}

void ClientChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --------------------------------------------------------------- HttpServer

HttpServer::HttpServer(HttpHandler handler, Options options,
                       ServiceMetrics* metrics)
    : handler_(std::move(handler)),
      options_(options),
      metrics_(metrics != nullptr ? metrics : &owned_metrics_) {
  if (::pipe(stop_pipe_) != 0) {
    stop_pipe_[0] = stop_pipe_[1] = -1;
  }
}

HttpServer::~HttpServer() {
  RequestStop();
  std::map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    draining_ = true;
    for (auto& [id, fd] : live_fds_) {
      (void)id;
      ::shutdown(fd, SHUT_RD);
    }
    threads.swap(threads_);
  }
  for (auto& [id, thread] : threads) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
  for (int fd : listener_fds_) {
    if (fd >= 0) ::close(fd);
  }
  for (const Endpoint& endpoint : endpoints_) {
    if (endpoint.kind == Endpoint::Kind::kUnix) {
      ::unlink(endpoint.path.c_str());
    }
  }
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

Status HttpServer::Listen(const Endpoint& endpoint) {
  if (stop_pipe_[0] < 0) {
    // Without the pipe, RequestStop() would be a silent no-op and the
    // drain contract (SIGTERM -> exit 0) unfulfillable: refuse to serve.
    return Status::Internal(
        "stop-pipe creation failed at construction (fd exhaustion?); "
        "refusing to serve without a working drain trigger");
  }
  MODIS_ASSIGN_OR_RETURN(const int fd, OpenSocket(endpoint));
  Endpoint bound = endpoint;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (Status filled = FillUnixAddr(endpoint.path, &addr); !filled.ok()) {
      ::close(fd);
      return filled;
    }
    ::unlink(endpoint.path.c_str());  // Stale socket from a dead host.
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const std::string error = std::strerror(errno);
      ::close(fd);
      return Status::IoError("bind " + endpoint.ToString() + ": " + error);
    }
  } else {
    auto host = ResolveHost(endpoint.host, /*for_bind=*/true);
    if (!host.ok()) {
      ::close(fd);
      return host.status();
    }
    const int reuse = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    addr.sin_addr = host.value();
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const std::string error = std::strerror(errno);
      ::close(fd);
      return Status::IoError("bind " + endpoint.ToString() + ": " + error);
    }
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
      bound.port = ntohs(actual.sin_port);
    }
  }
  if (::listen(fd, options_.listen_backlog) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen " + endpoint.ToString() + ": " + error);
  }
  listener_fds_.push_back(fd);
  endpoints_.push_back(std::move(bound));
  return Status::OK();
}

void HttpServer::Serve() {
  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    for (int fd : listener_fds_) fds.push_back(pollfd{fd, POLLIN, 0});
    fds.push_back(pollfd{stop_pipe_[0], POLLIN, 0});
    if (::poll(fds.data(), nfds_t(fds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds.back().revents != 0) break;  // RequestStop().
    for (size_t i = 0; i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int conn = ::accept(listener_fds_[i], nullptr, nullptr);
      if (conn < 0) continue;
      metrics_->connections_opened.fetch_add(1);
      metrics_->connections_active.fetch_add(1);
      std::lock_guard<std::mutex> lock(conn_mu_);
      ReapFinishedLocked();
      const uint64_t id = next_id_++;
      live_fds_[id] = conn;
      if (draining_) ::shutdown(conn, SHUT_RD);
      threads_.emplace(id,
                       std::thread([this, id, conn] {
                         ServeConnection(id, conn);
                       }));
    }
  }

  // Drain: stop accepting, half-close every session so blocked reads see
  // EOF while in-flight responses still go out, then join.
  for (int fd : listener_fds_) {
    if (fd >= 0) ::close(fd);
  }
  listener_fds_.clear();
  for (const Endpoint& endpoint : endpoints_) {
    if (endpoint.kind == Endpoint::Kind::kUnix) {
      ::unlink(endpoint.path.c_str());
    }
  }
  metrics_->draining.store(true);
  std::map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    draining_ = true;
    MODIS_LOG(INFO, "transport")
        .Tag("connections", uint64_t(live_fds_.size()))
        << "stopped accepting; draining open connections";
    for (auto& [id, fd] : live_fds_) {
      (void)id;
      ::shutdown(fd, SHUT_RD);
    }
    threads.swap(threads_);
    finished_.clear();
  }
  for (auto& [id, thread] : threads) {
    (void)id;
    if (thread.joinable()) thread.join();
  }
}

void HttpServer::RequestStop() {
  // Only async-signal-safe calls here: SIGTERM handlers call this.
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    ssize_t n = ::write(stop_pipe_[1], &byte, 1);
    (void)n;
  }
}

void HttpServer::ReapFinishedLocked() {
  for (uint64_t id : finished_) {
    auto it = threads_.find(id);
    if (it == threads_.end()) continue;
    if (it->second.joinable()) it->second.join();
    threads_.erase(it);
  }
  finished_.clear();
}

void HttpServer::ServeConnection(uint64_t id, int fd) {
  ServeRequests(fd);
  ::close(fd);
  metrics_->connections_active.fetch_sub(1);
  std::lock_guard<std::mutex> lock(conn_mu_);
  live_fds_.erase(id);
  finished_.push_back(id);
}

void HttpServer::ServeRequests(int fd) {
  HttpParser parser(options_.http);
  for (;;) {
    while (parser.has_request()) {
      const HttpRequest request = parser.TakeRequest();
      metrics_->http_requests.fetch_add(1);
      HttpResponse response = handler_(request);
      if (!request.keep_alive) response.close = true;
      if (response.status >= 400) metrics_->http_errors.fetch_add(1);
      if (!WriteAllFd(fd, response.Serialize())) {
        metrics_->dropped_connections.fetch_add(1);
        return;
      }
      if (response.close) return;
    }
    if (parser.has_error()) {
      // Malformed or over-limit input: one typed error response, then
      // close — the stream cannot be resynced after a framing error.
      metrics_->http_errors.fetch_add(1);
      HttpResponse response =
          MakeHttpError(parser.error_status(), parser.error_message());
      response.close = true;
      (void)WriteAllFd(fd, response.Serialize());
      return;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      metrics_->dropped_connections.fetch_add(1);
      return;
    }
    if (n == 0) return;  // EOF: clean between requests, truncated inside
                         // one — either way there is nobody to answer.
    parser.Feed(chunk, size_t(n));
  }
}

}  // namespace modis
