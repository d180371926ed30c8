#include "service/http.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "service/discovery_service.h"
#include "service/json.h"
#include "service/qos.h"
#include "service/transport.h"
#include "service/wire.h"

namespace modis {

namespace {

bool IsTokenChar(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  return std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
}

bool IsToken(const std::string& text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!IsTokenChar(c)) return false;
  }
  return true;
}

std::string ToLower(std::string text) {
  for (char& c : text) {
    if (c >= 'A' && c <= 'Z') c = char(c - 'A' + 'a');
  }
  return text;
}

std::string TrimOws(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && (text[begin] == ' ' || text[begin] == '\t')) ++begin;
  while (end > begin && (text[end - 1] == ' ' || text[end - 1] == '\t')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// True when the comma-separated token list `value` contains `token`
/// (case-insensitive) — the Connection header grammar.
bool TokenListContains(const std::string& value, const char* token) {
  const std::string lower = ToLower(value);
  size_t start = 0;
  while (start <= lower.size()) {
    size_t comma = lower.find(',', start);
    if (comma == std::string::npos) comma = lower.size();
    if (TrimOws(lower.substr(start, comma - start)) == token) return true;
    start = comma + 1;
  }
  return false;
}

bool ParseDecimal(const std::string& text, uint64_t* value) {
  if (text.empty() || text.size() > 15) return false;
  uint64_t out = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + uint64_t(c - '0');
  }
  *value = out;
  return true;
}

bool ParseHex(const std::string& text, uint64_t* value) {
  if (text.empty() || text.size() > 12) return false;
  uint64_t out = 0;
  for (char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = uint64_t(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = uint64_t(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = uint64_t(c - 'A' + 10);
    } else {
      return false;
    }
    out = out * 16 + digit;
  }
  *value = out;
  return true;
}

std::string FormatMetricNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendHistogram(const char* name, const LatencyHistogram::Snapshot& h,
                     const char* help, std::string* out) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " histogram\n";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += h.buckets[i];
    *out += name;
    // The final bucket absorbs everything beyond its bound, so it is the
    // +Inf bucket of the exposition (cumulative == count there).
    if (i + 1 == LatencyHistogram::kBuckets) {
      *out += "_bucket{le=\"+Inf\"} ";
    } else {
      *out += "_bucket{le=\"" +
              FormatMetricNumber(LatencyHistogram::BucketBoundMs(i)) +
              "\"} ";
    }
    *out += std::to_string(cumulative);
    *out += '\n';
  }
  *out += name;
  *out += "_sum " + FormatMetricNumber(h.sum_ms) + "\n";
  *out += name;
  *out += "_count " + std::to_string(h.count) + "\n";
}

}  // namespace

const std::string* HttpRequest::FindHeader(
    const std::string& lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

std::string HttpResponse::Serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    HttpStatusReason(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  out += "\r\n";
  out += body;
  return out;
}

// ---------------------------------------------------------------- parser

HttpParser::HttpParser(Limits limits) : limits_(limits) {}

void HttpParser::Fail(int status, std::string message) {
  phase_ = Phase::kError;
  error_status_ = status;
  error_message_ = std::move(message);
  ready_ = false;
}

bool HttpParser::TakeLine(size_t limit, int limit_status, const char* what,
                          std::string* line) {
  const size_t newline = buffer_.find('\n', pos_);
  if (newline == std::string::npos) {
    if (buffer_.size() - pos_ > limit) {
      Fail(limit_status, std::string(what) + " exceeds " +
                             std::to_string(limit) + " bytes");
    }
    return false;
  }
  if (newline - pos_ > limit) {
    Fail(limit_status,
         std::string(what) + " exceeds " + std::to_string(limit) + " bytes");
    return false;
  }
  line->assign(buffer_, pos_, newline - pos_);
  pos_ = newline + 1;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

void HttpParser::ParseRequestLine(const std::string& line) {
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return Fail(400, "malformed request line");
  }
  current_.method = line.substr(0, sp1);
  current_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (!IsToken(current_.method)) return Fail(400, "malformed method");
  if (current_.target.empty() || current_.target[0] != '/' ||
      current_.target.find(' ') != std::string::npos) {
    return Fail(400, "request target must be an origin-form path");
  }
  if (version.size() != 8 || version.compare(0, 5, "HTTP/") != 0 ||
      version[5] < '0' || version[5] > '9' || version[6] != '.' ||
      version[7] < '0' || version[7] > '9') {
    return Fail(400, "malformed HTTP version");
  }
  if (version[5] != '1') {
    return Fail(505, "only HTTP/1.x is supported");
  }
  current_.version_minor = version[7] - '0';
  current_.keep_alive = current_.version_minor >= 1;
  phase_ = Phase::kHeaders;
}

void HttpParser::ParseHeaderLine(const std::string& line) {
  if (line.empty()) return FinishHeaders();
  if (line[0] == ' ' || line[0] == '\t') {
    return Fail(400, "obsolete header line folding");
  }
  const size_t colon = line.find(':');
  if (colon == std::string::npos || colon == 0) {
    return Fail(400, "malformed header line");
  }
  std::string name = line.substr(0, colon);
  if (!IsToken(name)) return Fail(400, "malformed header name");
  if (current_.headers.size() >= limits_.max_headers) {
    return Fail(431, "more than " + std::to_string(limits_.max_headers) +
                         " headers");
  }
  current_.headers.emplace_back(ToLower(std::move(name)),
                                TrimOws(line.substr(colon + 1)));
}

void HttpParser::FinishHeaders() {
  const std::string* connection = current_.FindHeader("connection");
  if (connection != nullptr) {
    if (TokenListContains(*connection, "close")) {
      current_.keep_alive = false;
    } else if (TokenListContains(*connection, "keep-alive")) {
      current_.keep_alive = true;
    }
  }
  const std::string* transfer = current_.FindHeader("transfer-encoding");
  const std::string* length = current_.FindHeader("content-length");
  if (transfer != nullptr) {
    if (length != nullptr) {
      // Framing ambiguity is the request-smuggling vector: refuse.
      return Fail(400, "both Content-Length and Transfer-Encoding");
    }
    if (ToLower(TrimOws(*transfer)) != "chunked") {
      return Fail(501, "unsupported transfer encoding '" + *transfer + "'");
    }
    body_total_ = 0;
    phase_ = Phase::kChunkSize;
    return;
  }
  if (length != nullptr) {
    // Every repeat of the header must agree byte-for-byte.
    for (const auto& [name, value] : current_.headers) {
      if (name == "content-length" && value != *length) {
        return Fail(400, "conflicting Content-Length headers");
      }
    }
    uint64_t bytes = 0;
    if (!ParseDecimal(*length, &bytes)) {
      return Fail(400, "malformed Content-Length '" + *length + "'");
    }
    if (bytes > limits_.max_body_bytes) {
      return Fail(413, "body of " + std::to_string(bytes) +
                           " bytes exceeds " +
                           std::to_string(limits_.max_body_bytes));
    }
    if (bytes == 0) {
      phase_ = Phase::kComplete;
      return;
    }
    body_remaining_ = size_t(bytes);
    phase_ = Phase::kFixedBody;
    return;
  }
  phase_ = Phase::kComplete;
}

void HttpParser::Advance() {
  // Bounded tolerance for blank lines before the request line (RFC 9112
  // §2.2); beyond that the peer is not speaking HTTP.
  int leading_blanks = 0;
  while (!ready_ && phase_ != Phase::kError) {
    switch (phase_) {
      case Phase::kRequestLine: {
        std::string line;
        if (!TakeLine(limits_.max_request_line_bytes, 414, "request line",
                      &line)) {
          return;
        }
        if (line.empty()) {
          if (++leading_blanks > 4) Fail(400, "expected a request line");
          break;
        }
        ParseRequestLine(line);
        break;
      }
      case Phase::kHeaders:
      case Phase::kTrailers: {
        std::string line;
        if (!TakeLine(limits_.max_header_bytes, 431, "header section",
                      &line)) {
          return;
        }
        header_bytes_ += line.size() + 2;
        if (header_bytes_ > limits_.max_header_bytes) {
          Fail(431, "header section exceeds " +
                        std::to_string(limits_.max_header_bytes) + " bytes");
          break;
        }
        if (phase_ == Phase::kTrailers) {
          // Trailer fields are accepted and discarded.
          if (line.empty()) phase_ = Phase::kComplete;
          break;
        }
        ParseHeaderLine(line);
        break;
      }
      case Phase::kFixedBody:
      case Phase::kChunkData: {
        const size_t available = buffer_.size() - pos_;
        if (available == 0) return;
        const size_t take =
            available < body_remaining_ ? available : body_remaining_;
        current_.body.append(buffer_, pos_, take);
        pos_ += take;
        body_remaining_ -= take;
        if (body_remaining_ != 0) return;
        phase_ = phase_ == Phase::kFixedBody ? Phase::kComplete
                                             : Phase::kChunkDataEnd;
        break;
      }
      case Phase::kChunkSize: {
        std::string line;
        if (!TakeLine(/*limit=*/256, 400, "chunk size line", &line)) return;
        const size_t semicolon = line.find(';');  // Extensions: ignored.
        uint64_t size = 0;
        if (!ParseHex(TrimOws(line.substr(0, semicolon)), &size)) {
          Fail(400, "malformed chunk size '" + line + "'");
          break;
        }
        if (body_total_ + size > limits_.max_body_bytes) {
          Fail(413, "chunked body exceeds " +
                        std::to_string(limits_.max_body_bytes) + " bytes");
          break;
        }
        if (size == 0) {
          phase_ = Phase::kTrailers;
          break;
        }
        body_total_ += size_t(size);
        body_remaining_ = size_t(size);
        phase_ = Phase::kChunkData;
        break;
      }
      case Phase::kChunkDataEnd: {
        const size_t available = buffer_.size() - pos_;
        if (available == 0) return;
        if (buffer_[pos_] == '\n') {
          pos_ += 1;
        } else if (buffer_[pos_] == '\r') {
          if (available < 2) return;
          if (buffer_[pos_ + 1] != '\n') {
            Fail(400, "chunk data not terminated by CRLF");
            break;
          }
          pos_ += 2;
        } else {
          Fail(400, "chunk data not terminated by CRLF");
          break;
        }
        phase_ = Phase::kChunkSize;
        break;
      }
      case Phase::kComplete:
        ready_ = true;
        buffer_.erase(0, pos_);
        pos_ = 0;
        return;
      case Phase::kError:
        return;
    }
  }
}

void HttpParser::Feed(const char* data, size_t size) {
  if (phase_ == Phase::kError) return;
  buffer_.append(data, size);
  if (!ready_) Advance();
}

HttpRequest HttpParser::TakeRequest() {
  HttpRequest request = std::move(current_);
  current_ = HttpRequest{};
  ready_ = false;
  phase_ = Phase::kRequestLine;
  header_bytes_ = 0;
  body_remaining_ = 0;
  body_total_ = 0;
  Advance();  // Pipelining: already-buffered bytes seed the next request.
  return request;
}

// ------------------------------------------------------------ exposition

std::string PrometheusExposition(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const ScalarMetricDesc& desc : ScalarMetricDescriptors()) {
    out += "# HELP ";
    out += desc.prom_name;
    out += ' ';
    out += desc.help;
    out += "\n# TYPE ";
    out += desc.prom_name;
    out += desc.counter ? " counter\n" : " gauge\n";
    out += desc.prom_name;
    out += ' ';
    out += std::to_string(snapshot.*desc.field);
    out += '\n';
  }
  out += "# HELP modis_draining Whether the host is draining (0/1).\n";
  out += "# TYPE modis_draining gauge\n";
  out += snapshot.draining ? "modis_draining 1\n" : "modis_draining 0\n";
  for (const HistogramMetricDesc& desc : HistogramMetricDescriptors()) {
    AppendHistogram(desc.prom_name, snapshot.*desc.field, desc.help, &out);
  }
  if (!snapshot.tenants.empty()) {
    for (const TenantMetricDesc& desc : TenantMetricDescriptors()) {
      out += "# HELP ";
      out += desc.prom_name;
      out += ' ';
      out += desc.help;
      out += "\n# TYPE ";
      out += desc.prom_name;
      out += desc.counter ? " counter\n" : " gauge\n";
      for (const TenantMetricsSnapshot& tenant : snapshot.tenants) {
        out += desc.prom_name;
        out += "{tenant=\"" + EscapeLabelValue(tenant.name) + "\"} ";
        out += std::to_string(tenant.*desc.field);
        out += '\n';
      }
    }
    out += "# HELP modis_tenant_priority Configured tenant priority.\n";
    out += "# TYPE modis_tenant_priority gauge\n";
    for (const TenantMetricsSnapshot& tenant : snapshot.tenants) {
      out += "modis_tenant_priority{tenant=\"" +
             EscapeLabelValue(tenant.name) + "\"} " +
             std::to_string(tenant.priority) + "\n";
    }
  }
  if (!snapshot.workers.empty()) {
    for (const WorkerMetricDesc& desc : WorkerMetricDescriptors()) {
      out += "# HELP ";
      out += desc.prom_name;
      out += ' ';
      out += desc.help;
      out += "\n# TYPE ";
      out += desc.prom_name;
      out += desc.counter ? " counter\n" : " gauge\n";
      for (const WorkerMetricsSnapshot& worker : snapshot.workers) {
        out += desc.prom_name;
        out += "{worker=\"" + std::to_string(worker.index) + "\"} ";
        out += std::to_string(worker.*desc.field);
        out += '\n';
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- router

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kFailedPrecondition: return 503;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kInternal: return 500;
    case StatusCode::kUnimplemented: return 501;
    case StatusCode::kIoError: return 500;
  }
  return 500;
}

HttpResponse MakeHttpError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  JsonValue doc{JsonValue::Object{}};
  doc.Set("ok", false);
  doc.Set("status", status);
  doc.Set("error", message);
  response.body = doc.Dump() + "\n";
  return response;
}

namespace {

/// A service Status as an HTTP response: the {"ok":false,...} body of
/// SerializeDiscoveryError, plus Retry-After on 429/503 so shed work is
/// cheap to retry correctly.
HttpResponse ResponseFromStatus(const Status& status) {
  HttpResponse response;
  response.status = HttpStatusForStatus(status);
  response.body = SerializeDiscoveryError(status) + "\n";
  if (response.status == 429 || response.status == 503) {
    const double retry_after = RetryAfterSeconds(status);
    const int seconds =
        retry_after > 0.0 ? int(std::ceil(retry_after)) : 1;
    response.headers.emplace_back("Retry-After", std::to_string(seconds));
  }
  return response;
}

HttpResponse MethodNotAllowed(const char* allow) {
  HttpResponse response = MakeHttpError(405, "method not allowed");
  response.headers.emplace_back("Allow", allow);
  return response;
}

HttpResponse QueryEndpoint(DiscoveryService* service,
                           const HttpRequest& request) {
  auto parsed = ParseDiscoveryRequest(request.body);
  if (!parsed.ok()) return ResponseFromStatus(parsed.status());
  DiscoveryRequest query = std::move(parsed).value();
  if (query.api_key.empty()) {
    if (const std::string* key = request.FindHeader("x-api-key")) {
      query.api_key = *key;
    }
  }
  if (!query.trace) {
    if (const std::string* flag = request.FindHeader("x-modis-trace")) {
      query.trace = *flag == "1" || ToLower(*flag) == "true";
    }
  }
  auto answer = service->Answer(query);
  if (!answer.ok()) return ResponseFromStatus(answer.status());
  HttpResponse response;
  if (!answer.value().request_id.empty()) {
    response.headers.emplace_back("X-Modis-Request-Id",
                                  answer.value().request_id);
  }
  response.body = SerializeDiscoveryResponse(answer.value()) + "\n";
  return response;
}

}  // namespace

HttpResponse RouteHttpRequest(DiscoveryService* service,
                              const HttpRequest& request) {
  const std::string path = request.target.substr(0, request.target.find('?'));
  if (path == "/v1/query") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return QueryEndpoint(service, request);
  }
  if (path == "/metrics") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = PrometheusExposition(service->SnapshotMetrics());
    return response;
  }
  if (path == "/v1/debug/traces") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    HttpResponse response;
    response.body = SerializeTraceDebug(service->SlowestTraces(),
                                        service->RecentTraces()) +
                    "\n";
    return response;
  }
  if (path == "/healthz") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    HttpResponse response;
    const bool draining = service->metrics()->draining.load();
    if (draining) response.status = 503;
    JsonValue doc{JsonValue::Object{}};
    doc.Set("ok", !draining);
    doc.Set("draining", draining);
    response.body = doc.Dump() + "\n";
    return response;
  }
  return ResponseFromStatus(Status::NotFound(
      "no route for '" + path +
      "' (POST /v1/query, GET /metrics, GET /v1/debug/traces, "
      "GET /healthz)"));
}

// ---------------------------------------------------------------- client

const std::string* HttpReply::FindHeader(const std::string& lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

Result<HttpReply> ReadHttpReply(ClientChannel* channel, std::string* carry) {
  size_t head_end;
  for (;;) {
    head_end = carry->find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    auto chunk = channel->ReceiveRaw();
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) {
      return Status::IoError("connection closed before the header end");
    }
    *carry += *chunk;
  }
  HttpReply reply;
  const size_t line_end = carry->find("\r\n");
  const std::string status_line = carry->substr(0, line_end);
  if (status_line.rfind("HTTP/1.1 ", 0) != 0 || status_line.size() < 12) {
    return Status::InvalidArgument("bad status line: " + status_line);
  }
  reply.status = std::atoi(status_line.c_str() + 9);
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < head_end) {
    const size_t end = carry->find("\r\n", pos);
    const std::string line = carry->substr(pos, end - pos);
    pos = end + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad header line: " + line);
    }
    std::string name = ToLower(line.substr(0, colon));
    std::string value = TrimOws(line.substr(colon + 1));
    if (name == "content-length") {
      content_length = size_t(std::strtoull(value.c_str(), nullptr, 10));
    }
    reply.headers.emplace_back(std::move(name), std::move(value));
  }
  carry->erase(0, head_end + 4);
  while (carry->size() < content_length) {
    auto chunk = channel->ReceiveRaw();
    if (!chunk.ok()) return chunk.status();
    if (chunk->empty()) return Status::IoError("connection closed mid-body");
    *carry += *chunk;
  }
  reply.body = carry->substr(0, content_length);
  carry->erase(0, content_length);
  return reply;
}

std::string FormatHttpRequest(const std::string& method,
                              const std::string& target,
                              const std::string& body,
                              const std::string& extra_headers) {
  std::string wire =
      method + " " + target + " HTTP/1.1\r\nHost: modis\r\n" + extra_headers;
  if (!body.empty()) {
    wire += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n";
  }
  return wire + "\r\n" + body;
}

Result<HttpReply> HttpExchange(const Endpoint& endpoint,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body,
                               const std::string& extra_headers) {
  MODIS_ASSIGN_OR_RETURN(ClientChannel channel,
                         ClientChannel::Connect(endpoint));
  MODIS_RETURN_IF_ERROR(channel.SendRaw(FormatHttpRequest(
      method, target, body, extra_headers + "Connection: close\r\n")));
  std::string carry;
  return ReadHttpReply(&channel, &carry);
}

}  // namespace modis
