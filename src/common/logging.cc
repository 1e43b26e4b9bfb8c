#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "common/mutex.h"
#include "common/string_util.h"

namespace secreta {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarning};
std::atomic<LogSink> g_sink{LogSink::kText};
Mutex g_log_mutex;
std::ostream* g_stream SECRETA_GUARDED_BY(g_log_mutex) = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

const char* Basename(const char* file) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level); }
LogLevel GetLogLevel() { return g_level.load(); }

void SetLogSink(LogSink sink) { g_sink.store(sink); }
LogSink GetLogSink() { return g_sink.load(); }

void SetLogStream(std::ostream* stream) {
  MutexLock lock(g_log_mutex);
  g_stream = stream;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= g_level.load()),
      level_(level),
      file_(file),
      line_(line) {}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  // Format the complete record first, then emit it with a single guarded
  // write: concurrent workers never interleave within a line.
  std::string out;
  if (g_sink.load() == LogSink::kJson) {
    double ts = std::chrono::duration<double>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count();
    out += StrFormat("{\"ts\":%.6f,\"level\":", ts);
    AppendJsonString(&out, LevelName(level_));
    out += ",\"src\":";
    AppendJsonString(&out, StrFormat("%s:%d", Basename(file_), line_));
    out += ",\"msg\":";
    AppendJsonString(&out, stream_.str());
    out += "}\n";
  } else {
    out = StrFormat("[%s %s:%d] %s\n", LevelName(level_), Basename(file_),
                    line_, stream_.str().c_str());
  }
  MutexLock lock(g_log_mutex);
  if (g_stream != nullptr) {
    g_stream->write(out.data(), static_cast<std::streamsize>(out.size()));
    g_stream->flush();
  } else {
    fwrite(out.data(), 1, out.size(), stderr);
    fflush(stderr);
  }
}

}  // namespace internal
}  // namespace secreta
