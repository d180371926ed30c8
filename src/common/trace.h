#ifndef MODIS_COMMON_TRACE_H_
#define MODIS_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace modis {

/// Index of a span within its recorder. Spans never move once begun, so
/// the id stays valid for the life of the recorder.
using SpanId = int32_t;

/// Sentinel parent for root spans (and the "no recorder attached" id).
inline constexpr SpanId kNoSpan = -1;

/// One timed phase of a query. `duration_ms < 0` marks a span that was
/// never ended (a crash or an early error return); exporters render it
/// with zero duration rather than hiding it.
struct TraceSpan {
  std::string name;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  double start_ms = 0.0;      // Offset from the recorder epoch.
  double duration_ms = -1.0;  // < 0 while the span is still open.
  /// Typed attributes (level index, batch size, exact/fused/persistent
  /// counts, ...). Integer-valued by design: everything the engine wants
  /// to attach is a count, and int64 keeps serialization lossless.
  std::vector<std::pair<std::string, int64_t>> attrs;
};

/// Per-query span tree recorder.
///
/// One recorder belongs to one query; phases running on pool workers
/// (the exact-training fan-out) share it. Every method takes one short
/// internal mutex, which at span granularity (a handful per batch, never
/// per row) is cheap and trivially TSan-clean. There is no thread-local
/// ambient context: parents are passed explicitly, which is what lets a
/// span id captured by a `ParallelFor` closure parent the worker's spans
/// correctly no matter which thread runs it.
///
/// Recording never consumes randomness and never reorders work, so a
/// traced query is byte-identical to an untraced one by construction.
class TraceRecorder {
 public:
  TraceRecorder();

  /// Opens a span. `parent` is kNoSpan for roots. Returns the new id.
  SpanId Begin(const std::string& name, SpanId parent);

  /// Closes a span, fixing its duration. Ending twice keeps the first
  /// duration; ending kNoSpan is a no-op (so callers may hold "maybe a
  /// span" ids without branching).
  void End(SpanId id);

  /// Attaches an integer attribute to an open or closed span. No-op for
  /// kNoSpan or out-of-range ids.
  void AddAttr(SpanId id, const std::string& key, int64_t value);

  /// Milliseconds elapsed since the recorder was constructed.
  double ElapsedMs() const;

  /// Copies the span tree as recorded so far. Spans appear in Begin()
  /// order; parent links always point at earlier entries.
  std::vector<TraceSpan> Snapshot() const;

  /// Appends another recorder's snapshot (dense ids, parents earlier)
  /// under `parent`: ids and parent links are offset past this
  /// recorder's spans, the other recorder's roots hang off `parent`, and
  /// start times shift by `offset_ms` onto this recorder's clock. This is
  /// how a worker process's span subtree joins the coordinator's trace.
  void Graft(const std::vector<TraceSpan>& spans, SpanId parent,
             double offset_ms);

 private:
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceSpan> spans_;
};

/// A completed query's trace, as retained by the host ring buffer and
/// echoed inline when the client opted in.
struct Trace {
  std::string request_id;
  std::string tenant;
  std::string task;
  double total_ms = 0.0;
  bool ok = true;
  /// Monotonic admission order; ties in total_ms break toward keeping
  /// the later query in the slow set.
  uint64_t sequence = 0;
  std::vector<TraceSpan> spans;
};

/// Sums the durations of all spans named `name`. Unended spans count 0.
double SumSpanMs(const std::vector<TraceSpan>& spans, const std::string& name);

/// A snapshot (dense ids) without its leaf spans named `name`; each
/// parent that lost some gains a "<name>_dropped" attribute with the
/// count. Ids are renumbered densely, so the result can still be
/// grafted (TraceRecorder::Graft).
std::vector<TraceSpan> DropLeafSpans(const std::vector<TraceSpan>& spans,
                                     const std::string& name);

/// Process-global span-start observer, fired by every TraceRecorder as a
/// span opens (after it is recorded, outside the recorder mutex). The
/// production value is null; the kill-injection battery installs one to
/// SIGKILL a worker process when a named engine phase ("train",
/// "commit", ...) begins — which is what makes "crash exactly mid-train"
/// a deterministic test point rather than a sleep race. Keep observers
/// async-signal-minded: they run on the query's execution threads.
using SpanObserver = void (*)(const char* name);
void SetGlobalSpanObserver(SpanObserver observer);

/// Bounded retention of completed traces: the N most recent and,
/// separately, the N slowest seen so far (N = `capacity`, 0 keeps none).
/// Mutex-guarded; Add() is on the query completion path and does O(N)
/// work on small fixed N.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Add(Trace trace);

  /// Most recent completions, oldest first.
  std::vector<Trace> Recent() const;

  /// Slowest completions, slowest first.
  std::vector<Trace> Slowest() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Trace> recent_;
  std::vector<Trace> slow_;  // Kept sorted, slowest first.
};

}  // namespace modis

#endif  // MODIS_COMMON_TRACE_H_
