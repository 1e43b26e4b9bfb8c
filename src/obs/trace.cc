#include "obs/trace.h"

#include <algorithm>

#include "common/string_util.h"
#include "csv/csv.h"

namespace secreta {

namespace {

// Per-thread state. The buffer pointer is looked up once per thread and then
// reused lock-free; the depth counter implements the thread-local span stack
// (we only need its height — parent/child structure is recovered from
// timestamp containment per thread).
thread_local void* tls_buffer = nullptr;
thread_local uint32_t tls_depth = 0;

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: outlives all threads
  return *tracer;
}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

uint32_t Tracer::Intern(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  if (tls_buffer != nullptr) return static_cast<ThreadBuffer*>(tls_buffer);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->head = std::make_unique<Chunk>();
  buffer->tail = buffer->head.get();
  ThreadBuffer* raw = buffer.get();
  {
    MutexLock lock(mutex_);
    raw->tid = static_cast<uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buffer));
  }
  tls_buffer = raw;
  return raw;
}

void Tracer::Record(uint32_t name_id, uint64_t start_ns, uint64_t dur_ns,
                    uint32_t depth) {
  ThreadBuffer* buffer = BufferForThisThread();
  Chunk* chunk = buffer->tail;
  uint32_t n = chunk->count.load(std::memory_order_relaxed);
  if (n == Chunk::kCapacity) {
    // Full: chain a fresh chunk. Publication via `next` (release) makes the
    // new chunk visible to concurrent exporters.
    Chunk* fresh = new Chunk();
    chunk->next.store(fresh, std::memory_order_release);
    buffer->tail = fresh;
    chunk = fresh;
    n = 0;
  }
  chunk->events[n] = TraceEvent{name_id, depth, start_ns, dur_ns};
  chunk->count.store(n + 1, std::memory_order_release);
}

void Tracer::Reset() {
  discard_before_ns_.store(NowNs(), std::memory_order_relaxed);
}

std::vector<ResolvedTraceEvent> Tracer::CollectEvents() const {
  std::vector<std::pair<uint32_t, const Chunk*>> heads;
  std::vector<std::string> names;
  {
    MutexLock lock(mutex_);
    heads.reserve(buffers_.size());
    for (const auto& buffer : buffers_) {
      heads.emplace_back(buffer->tid, buffer->head.get());
    }
    names = names_;
  }
  uint64_t discard_before =
      discard_before_ns_.load(std::memory_order_relaxed);
  std::vector<ResolvedTraceEvent> out;
  for (const auto& [tid, head] : heads) {
    for (const Chunk* chunk = head; chunk != nullptr;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      uint32_t n = chunk->count.load(std::memory_order_acquire);
      for (uint32_t i = 0; i < n; ++i) {
        const TraceEvent& ev = chunk->events[i];
        if (ev.start_ns < discard_before) continue;
        ResolvedTraceEvent resolved;
        resolved.name = ev.name_id < names.size() ? names[ev.name_id]
                                                  : StrFormat("name#%u",
                                                              ev.name_id);
        resolved.tid = tid;
        resolved.depth = ev.depth;
        resolved.start_ns = ev.start_ns;
        resolved.dur_ns = ev.dur_ns;
        out.push_back(std::move(resolved));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ResolvedTraceEvent& a, const ResolvedTraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  return out;
}

size_t Tracer::num_events() const { return CollectEvents().size(); }

std::string Tracer::ToChromeTraceJson() const {
  std::vector<ResolvedTraceEvent> events = CollectEvents();
  std::vector<uint32_t> tids;
  for (const ResolvedTraceEvent& ev : events) {
    if (tids.empty() || tids.back() != ev.tid) tids.push_back(ev.tid);
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto separate = [&] {
    if (!first) out += ',';
    first = false;
  };
  separate();
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"secreta\"}}";
  for (uint32_t tid : tids) {
    separate();
    out += StrFormat(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"secreta-t%u\"}}",
        tid, tid);
  }
  for (const ResolvedTraceEvent& ev : events) {
    separate();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += StrFormat("%u", ev.tid);
    out += ",\"name\":";
    AppendJsonString(&out, ev.name);
    // Chrome trace timestamps are microseconds; keep nanosecond precision
    // with fractional values.
    out += StrFormat(",\"ts\":%.3f,\"dur\":%.3f",
                     static_cast<double>(ev.start_ns) / 1e3,
                     static_cast<double>(ev.dur_ns) / 1e3);
    out += StrFormat(",\"args\":{\"depth\":%u}}", ev.depth);
  }
  out += "]}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return csv::WriteFile(path, ToChromeTraceJson());
}

ScopedSpan::ScopedSpan(uint32_t name_id) {
  if (Tracer::Get().enabled()) Open(name_id);
}

ScopedSpan::ScopedSpan(std::string_view name) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) Open(tracer.Intern(name));
}

void ScopedSpan::Open(uint32_t name_id) {
  active_ = true;
  name_id_ = name_id;
  depth_ = ++tls_depth;
  start_ns_ = Tracer::Get().NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --tls_depth;
  Tracer& tracer = Tracer::Get();
  tracer.Record(name_id_, start_ns_, tracer.NowNs() - start_ns_, depth_);
}

}  // namespace secreta
