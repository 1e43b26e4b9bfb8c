#include "obs/slow_query_log.h"

#include "common/string_util.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "obs/trace_tail.h"

namespace secreta {

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();  // leaked, like the registry
  return *log;
}

SlowQueryLog::SlowQueryLog()
    : records_counter_(MetricsRegistry::Global().counter(
          metric_names::kSlowQueryLogRecords)) {}

SlowQueryLog::~SlowQueryLog() { Close(); }

Status SlowQueryLog::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError(
        StrFormat("cannot open slow-query log \"%s\"", path.c_str()));
  }
  MutexLock lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  records_written_ = 0;
  enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

void SlowQueryLog::Close() {
  MutexLock lock(mutex_);
  enabled_.store(false, std::memory_order_release);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void SlowQueryLog::Record(const RequestTrace& trace) {
  if (!enabled()) return;
  const std::string line = RequestTraceToJsonLine(trace);
  {
    MutexLock lock(mutex_);
    if (file_ == nullptr) return;
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    // Flushed per record so operators can tail the file live; slow queries
    // are rare by construction, so the flush is off the hot path.
    std::fflush(file_);
    ++records_written_;
  }
  records_counter_->Increment();
}

uint64_t SlowQueryLog::records_written() const {
  MutexLock lock(mutex_);
  return records_written_;
}

}  // namespace secreta
