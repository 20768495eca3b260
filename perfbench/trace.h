// In-memory spans for the traced run.
//
// A span is one timed call into a layer's public function, recorded from
// the benchmark's own code: name, start, end, the span that caused it and
// the lookup (request id) it belongs to. Spans stay in memory while the
// run measures and are written out once at the end (Chrome trace-event
// JSON, viewable in Perfetto or chrome://tracing).
//
// Per-layer numbers use self time: a span's duration minus the part of its
// interval covered by its children, children overlapping each other
// counted once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock every span and schedule uses.
inline std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // lookup this span belongs to; 0 = none
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class SpanRecorder {
  public:
    // Fresh span id (never 0). Thread-safe.
    std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

    // Records a finished span. Thread-safe.
    void Add(Span span);

    // Records a span with a fresh id and returns that id.
    std::uint64_t Add(const std::string& name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent,
                      std::uint64_t request);

    std::vector<Span> spans() const;

  private:
    std::atomic<std::uint64_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

// Times one call: the span starts at construction and is recorded at
// destruction. With a null recorder it records nothing.
class ScopedSpan {
  public:
    ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t parent,
               std::uint64_t request);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    SpanRecorder* recorder_;
    Span span_;
};

// Self time of every span, in ns, index-aligned with `spans`. A child's
// interval is clipped to its parent's before it is subtracted.
std::vector<double> SelfTimesNs(const std::vector<Span>& spans);

// For every request that has spans named `name`: the sum of their self
// times, in ns (one value per request, in request order).
std::vector<double> SelfTimePerRequestNs(const std::vector<Span>& spans,
                                         const std::vector<double>& self_ns,
                                         const std::string& name);

// Writes the spans as Chrome trace-event JSON; false on an I/O error.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
