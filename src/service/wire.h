#ifndef MODIS_SERVICE_WIRE_H_
#define MODIS_SERVICE_WIRE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "service/discovery_service.h"

namespace modis {

/// The JSON codec of the discovery protocol (docs/SERVING.md): one
/// request document in, one response document out. HTTP bodies (POST
/// /v1/query) and shm job ring slots both carry these documents, and
/// these codecs are the single source of truth for the field names.

/// Decodes one request document. Unknown members are ignored; absent
/// members keep the DiscoveryRequest defaults; a wrong-typed or malformed
/// document is an InvalidArgument.
Result<DiscoveryRequest> ParseDiscoveryRequest(const std::string& text);

/// Encodes a request as one compact document (no trailing newline).
std::string SerializeDiscoveryRequest(const DiscoveryRequest& request);

/// Encodes a response as `{"ok":true, ...}`.
std::string SerializeDiscoveryResponse(const DiscoveryResponse& response);

/// Encodes a failure as `{"ok":false,"code":...,"error":...}`.
std::string SerializeDiscoveryError(const Status& status);

/// Decodes a response document (client side). A well-formed
/// `{"ok":false,...}` document decodes into the transported Status.
Result<DiscoveryResponse> ParseDiscoveryResponse(const std::string& text);

/// Encodes a metrics snapshot as `{"ok":true,"metrics":{...}}` — the
/// host's shutdown dump. The member names are the JSON side of the one
/// descriptor table behind GET /metrics (docs/SERVING.md §5).
std::string SerializeServiceMetrics(const MetricsSnapshot& snapshot);

/// Encodes the debug trace ring as one
/// `{"ok":true,"traceEvents":[...]}` document in the Chrome
/// `trace_event` format (complete "X" events, timestamps/durations in
/// microseconds), loadable as-is in about:tracing or ui.perfetto.dev.
/// Each retained trace becomes one process (pid = request sequence)
/// named after its request id; served by `GET /v1/debug/traces`
/// (docs/OBSERVABILITY.md).
std::string SerializeTraceDebug(const std::vector<Trace>& slowest,
                                const std::vector<Trace>& recent);

}  // namespace modis

#endif  // MODIS_SERVICE_WIRE_H_
