#include "common/trace.h"

#include <algorithm>
#include <atomic>

namespace modis {

namespace {

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::atomic<SpanObserver> g_span_observer{nullptr};

}  // namespace

void SetGlobalSpanObserver(SpanObserver observer) {
  g_span_observer.store(observer, std::memory_order_release);
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

SpanId TraceRecorder::Begin(const std::string& name, SpanId parent) {
  const auto now = std::chrono::steady_clock::now();
  SpanId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TraceSpan span;
    span.name = name;
    span.id = static_cast<SpanId>(spans_.size());
    span.parent = parent;
    span.start_ms = MsBetween(epoch_, now);
    spans_.push_back(std::move(span));
    id = spans_.back().id;
  }
  if (SpanObserver observer = g_span_observer.load(std::memory_order_acquire)) {
    observer(name.c_str());
  }
  return id;
}

void TraceRecorder::End(SpanId id) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= spans_.size()) return;
  TraceSpan& span = spans_[static_cast<size_t>(id)];
  if (span.duration_ms >= 0.0) return;  // Already ended.
  span.duration_ms = MsBetween(epoch_, now) - span.start_ms;
  if (span.duration_ms < 0.0) span.duration_ms = 0.0;
}

void TraceRecorder::AddAttr(SpanId id, const std::string& key, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= spans_.size()) return;
  spans_[static_cast<size_t>(id)].attrs.emplace_back(key, value);
}

double TraceRecorder::ElapsedMs() const {
  return MsBetween(epoch_, std::chrono::steady_clock::now());
}

std::vector<TraceSpan> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void TraceRecorder::Graft(const std::vector<TraceSpan>& spans, SpanId parent,
                          double offset_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  const SpanId offset = static_cast<SpanId>(spans_.size());
  for (TraceSpan span : spans) {
    span.id += offset;
    span.parent = span.parent == kNoSpan ? parent : span.parent + offset;
    span.start_ms += offset_ms;
    spans_.push_back(std::move(span));
  }
}

double SumSpanMs(const std::vector<TraceSpan>& spans,
                 const std::string& name) {
  double total = 0.0;
  for (const TraceSpan& span : spans) {
    if (span.name == name && span.duration_ms > 0.0) {
      total += span.duration_ms;
    }
  }
  return total;
}

std::vector<TraceSpan> DropLeafSpans(const std::vector<TraceSpan>& spans,
                                     const std::string& name) {
  std::vector<bool> has_child(spans.size(), false);
  for (const TraceSpan& span : spans) {
    if (span.parent != kNoSpan) has_child[size_t(span.parent)] = true;
  }
  std::vector<SpanId> renumbered(spans.size(), kNoSpan);
  std::vector<int64_t> dropped(spans.size(), 0);
  std::vector<TraceSpan> kept;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanId parent = spans[i].parent;
    if (spans[i].name == name && !has_child[i]) {
      if (parent != kNoSpan) ++dropped[size_t(parent)];
      continue;
    }
    renumbered[i] = static_cast<SpanId>(kept.size());
    kept.push_back(spans[i]);
    kept.back().id = renumbered[i];
    kept.back().parent =
        parent == kNoSpan ? kNoSpan : renumbered[size_t(parent)];
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (dropped[i] > 0) {
      kept[size_t(renumbered[i])].attrs.emplace_back(name + "_dropped",
                                                     dropped[i]);
    }
  }
  return kept;
}

TraceRing::TraceRing(size_t capacity) : capacity_(capacity) {}

void TraceRing::Add(Trace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  recent_.push_back(trace);
  while (recent_.size() > capacity_) recent_.pop_front();
  // Keep the slow set sorted slowest-first; a tie keeps the newer trace
  // closer to the front so eviction (drop the back) is deterministic.
  const auto at = std::upper_bound(
      slow_.begin(), slow_.end(), trace, [](const Trace& a, const Trace& b) {
        if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
        return a.sequence > b.sequence;
      });
  slow_.insert(at, std::move(trace));
  if (slow_.size() > capacity_) slow_.pop_back();
}

std::vector<Trace> TraceRing::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Trace>(recent_.begin(), recent_.end());
}

std::vector<Trace> TraceRing::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

}  // namespace modis
