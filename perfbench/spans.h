// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions. A traced run keeps every span in memory and
// writes them once, at the end; an untraced run passes a null log and pays
// one branch per call site.
//
// A span's self time is its duration minus the part of that interval its
// child spans cover. Per-layer metrics are sums of self time by span name,
// so the layers of one root span add up to the root's duration exactly.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock reading in nanoseconds. CLOCK_MONOTONIC is shared by every
/// process on the host, so a child process's readings line up with ours.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index into the same log, -1 for a root
  uint64_t request = 0;  ///< shared by the spans of one request (0: none)
};

/// Spans of one thread. Not thread-safe: each thread owns one and the logs
/// are merged after the threads are joined.
class SpanLog {
 public:
  /// Opens a span whose parent is the innermost span still open.
  size_t Begin(const std::string& name, uint64_t request = 0);
  void End(size_t index);
  /// Records an already-finished span under the innermost open span (used
  /// for spans a child process measured).
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns);
  /// Appends `other`'s spans, re-basing their parent indices.
  void Merge(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time in seconds, summed per span name.
  std::map<std::string, double> SelfSeconds() const;
  /// Durations in seconds of every span named `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes one JSON object per span (times relative to the first span).
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Self time of `parent` given its children's intervals: the parent's
/// duration minus the union of the children clipped to the parent.
int64_t SelfNs(const Span& parent, const std::vector<const Span*>& children);

/// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log), index_(log ? log->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* const log_;
  const size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
