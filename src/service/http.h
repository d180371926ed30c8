#ifndef MODIS_SERVICE_HTTP_H_
#define MODIS_SERVICE_HTTP_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "service/metrics.h"

namespace modis {

class DiscoveryService;

/// One parsed HTTP/1.x request. Header names are lowercased at parse time
/// (field names are case-insensitive on the wire); values keep their
/// bytes with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;  // As sent ("GET", "POST", ...); case-sensitive.
  std::string target;  // Origin-form: "/v1/query", "/metrics?x=1", ...
  int version_minor = 1;  // HTTP/1.<minor>; the parser rejects other majors.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Connection semantics after this request: HTTP/1.1 defaults to true,
  /// HTTP/1.0 to false; a Connection header overrides either way.
  bool keep_alive = true;

  /// First header named `lower_name` (pass it lowercased), or nullptr.
  const std::string* FindHeader(const std::string& lower_name) const;
};

/// One response, serialized with Content-Length framing (the facade never
/// sends chunked responses: every payload is in memory already).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers ("Retry-After", "Allow", ...); Content-Type,
  /// Content-Length, and Connection are emitted by Serialize().
  std::vector<std::pair<std::string, std::string>> headers;
  /// Close after sending. The transport also forces this when the request
  /// asked for it (or the stream is unrecoverable).
  bool close = false;

  std::string Serialize() const;
};

/// The canonical reason phrase of `status` ("OK", "Too Many Requests");
/// "Error" for codes the facade never emits.
const char* HttpStatusReason(int status);

/// Incremental HTTP/1.1 request parser: feed raw bytes as they arrive,
/// take complete requests out. Supports Content-Length and chunked
/// bodies, keep-alive, and pipelining (bytes beyond one request stay
/// buffered and seed the next). Malformed or over-limit input puts the
/// parser in a sticky error state carrying the HTTP status to answer
/// with before closing — the stream cannot be resynced after a framing
/// error, so one connection dies, never the host.
class HttpParser {
 public:
  struct Limits {
    /// Request line (method + target + version) cap; beyond it → 414.
    size_t max_request_line_bytes;
    /// Total header-section byte cap (trailers included) → 431.
    size_t max_header_bytes;
    size_t max_headers;  // Header-count cap → 431.
    /// Body cap, Content-Length or de-chunked → 413.
    size_t max_body_bytes;

    Limits()
        : max_request_line_bytes(8u << 10),
          max_header_bytes(32u << 10),
          max_headers(100),
          max_body_bytes(1u << 20) {}
  };

  explicit HttpParser(Limits limits = Limits());

  /// Appends bytes and advances the state machine as far as they allow.
  void Feed(const char* data, size_t size);
  void Feed(const std::string& data) { Feed(data.data(), data.size()); }

  /// True when a complete request is ready to take.
  bool has_request() const { return ready_; }
  /// Pops the parsed request and resumes parsing any pipelined bytes
  /// already buffered. Only valid when has_request().
  HttpRequest TakeRequest();

  /// Sticky: true after malformed or over-limit input.
  bool has_error() const { return error_status_ != 0; }
  /// The HTTP status to answer with (400/413/414/431/501/505).
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

 private:
  enum class Phase {
    kRequestLine,
    kHeaders,
    kFixedBody,    // Content-Length bytes outstanding.
    kChunkSize,    // Hex size line of the next chunk.
    kChunkData,    // Chunk payload bytes outstanding.
    kChunkDataEnd, // CRLF after a chunk's payload.
    kTrailers,     // After the 0-size chunk, until the blank line.
    kComplete,
    kError,
  };

  void Fail(int status, std::string message);
  /// Extracts one (CR)LF-terminated line into `*line`; false when the
  /// buffer holds no complete line yet (failing with `limit_status` if
  /// the unterminated portion already exceeds `limit`).
  bool TakeLine(size_t limit, int limit_status, const char* what,
                std::string* line);
  void ParseRequestLine(const std::string& line);
  void ParseHeaderLine(const std::string& line);
  void FinishHeaders();
  void Advance();

  Limits limits_;
  std::string buffer_;
  size_t pos_ = 0;
  Phase phase_ = Phase::kRequestLine;
  HttpRequest current_;
  size_t header_bytes_ = 0;
  size_t body_remaining_ = 0;
  size_t body_total_ = 0;
  bool ready_ = false;
  int error_status_ = 0;
  std::string error_message_;
};

/// Renders one metrics snapshot as Prometheus text exposition (version
/// 0.0.4): every ScalarMetricDescriptors() entry as a counter/gauge
/// line, `draining` as a 0/1 gauge, the pow2 latency histograms as
/// `_bucket{le=...}`/`_sum`/`_count` series, and the per-tenant counters
/// as `modis_tenant_*{tenant="..."}` series. Value-for-value parity with
/// SerializeServiceMetrics() over the same snapshot is a tested contract.
std::string PrometheusExposition(const MetricsSnapshot& snapshot);

/// Maps a service Status to the HTTP status the facade answers with
/// (ResourceExhausted → 429, InvalidArgument → 400, NotFound → 404,
/// FailedPrecondition → 503, ...).
int HttpStatusForStatus(const Status& status);

/// A canned JSON error response: {"ok":false,"status":...,"error":...}.
HttpResponse MakeHttpError(int status, const std::string& message);

/// The endpoint router of the host (docs/SERVING.md §6): POST /v1/query
/// (the JSON request document of service/wire.h as the body, X-Api-Key
/// honored when the body names no api_key), GET /metrics (Prometheus
/// exposition), GET /v1/debug/traces, GET /healthz. Unknown paths → 404,
/// wrong methods → 405 with Allow. The same in both execution modes: a
/// service that owns a WorkerPool admits, traces, and counts exactly like
/// an in-process one. Runs on the connection's thread; thread-safe.
HttpResponse RouteHttpRequest(DiscoveryService* service,
                              const HttpRequest& request);

// ------------------------------------------------------------ client side

class ClientChannel;
struct Endpoint;

/// One response as a client reads it. Header names are lowercased.
struct HttpReply {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header named `lower_name` (pass it lowercased), or nullptr.
  const std::string* FindHeader(const std::string& lower_name) const;
};

/// Reads one Content-Length-framed response (the only framing the host
/// sends) from `channel`. `carry` holds bytes read beyond the previous
/// response on the same connection (pipelining) and keeps any beyond
/// this one.
Result<HttpReply> ReadHttpReply(ClientChannel* channel, std::string* carry);

/// The bytes of one request: request line, `Host`, `extra_headers`
/// (each "Name: value\r\n"), then Content-Type/Content-Length and
/// `body` when the body is non-empty. Keep-alive unless
/// `extra_headers` says otherwise.
std::string FormatHttpRequest(const std::string& method,
                              const std::string& target,
                              const std::string& body = "",
                              const std::string& extra_headers = "");

/// One request/response exchange on a fresh connection: sends
/// FormatHttpRequest(...) with `Connection: close`, reads one reply,
/// closes.
Result<HttpReply> HttpExchange(const Endpoint& endpoint,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body = "",
                               const std::string& extra_headers = "");

}  // namespace modis

#endif  // MODIS_SERVICE_HTTP_H_
