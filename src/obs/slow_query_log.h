// Structured slow-query log: the query server appends one JSONL record per
// COUNT whose end-to-end latency crosses its slow-query threshold
// (ServerOptions::slow_query_threshold_seconds). Each record is the request's
// RequestTrace (obs/trace_tail.h) — tenant, dataset, wildcarded predicate
// shape, run vs. total time, cache hit, active kernel tier — written with
// RequestTraceToJsonLine, so the log line and the pinned trace are the same
// record and `grep trace_id` pivots between them. Enabled on secreta_jobd
// with `--slow-query-log PATH`.

#ifndef SECRETA_OBS_SLOW_QUERY_LOG_H_
#define SECRETA_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

class Counter;
struct RequestTrace;

/// \brief Append-only JSONL sink of slow request traces.
///
/// Disabled (no-op) until Open() succeeds. Writes are mutex-serialized and
/// flushed per record so `tail -f` sees lines as they happen. Thread-safe.
class SlowQueryLog {
 public:
  /// The process-wide log used by the serving layer.
  static SlowQueryLog& Global();

  SlowQueryLog();
  ~SlowQueryLog();
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Opens (truncates) `path` and starts accepting records.
  [[nodiscard]] Status Open(const std::string& path) SECRETA_EXCLUDES(mutex_);

  /// Flushes and closes; Record() becomes a no-op again.
  void Close() SECRETA_EXCLUDES(mutex_);

  /// Lock-free, so Record() on a closed log costs one atomic load and never
  /// contends with concurrent writers.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Appends one trace as a JSONL line (callers decide slowness). No-op when
  /// closed.
  void Record(const RequestTrace& trace) SECRETA_EXCLUDES(mutex_);

  /// Records appended since Open() (0 when never opened).
  uint64_t records_written() const SECRETA_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::FILE* file_ SECRETA_GUARDED_BY(mutex_) = nullptr;
  uint64_t records_written_ SECRETA_GUARDED_BY(mutex_) = 0;
  std::atomic<bool> enabled_{false};
  // Stable registry handle, resolved once so Record() skips the lookup.
  Counter* records_counter_;
};

}  // namespace secreta

#endif  // SECRETA_OBS_SLOW_QUERY_LOG_H_
