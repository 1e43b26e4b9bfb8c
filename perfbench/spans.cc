#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "export/json_writer.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t SpanLog::Begin(const std::string& name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.request = request;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanLog::End(size_t index) {
  spans_[index].end_ns = NowNs();
  // Spans close innermost-first (ScopedSpan), so `index` is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const std::string& name, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(std::move(span));
}

void SpanLog::Merge(const SpanLog& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

int64_t SelfNs(const Span& parent, const std::vector<const Span*>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span* child : children) {
    const int64_t start = std::max(child->start_ns, parent.start_ns);
    const int64_t end = std::min(child->end_ns, parent.end_ns);
    if (start < end) covered.emplace_back(start, end);
  }
  std::sort(covered.begin(), covered.end());
  int64_t busy = 0;
  int64_t reach = parent.start_ns;
  for (const auto& [start, end] : covered) {
    const int64_t from = std::max(start, reach);
    if (end > from) busy += end - from;
    reach = std::max(reach, end);
  }
  return (parent.end_ns - parent.start_ns) - busy;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<std::vector<const Span*>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) children[static_cast<size_t>(span.parent)].push_back(&span);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += 1e-9 * double(SelfNs(spans_[i], children[i]));
  }
  return self;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(1e-9 * double(span.end_ns - span.start_ns));
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    secreta::JsonWriter w;
    w.BeginObject();
    w.Key("name");
    w.String(span.name);
    w.Key("start_ns");
    w.Int(span.start_ns - origin);
    w.Key("end_ns");
    w.Int(span.end_ns - origin);
    w.Key("parent");
    w.Int(span.parent);
    w.Key("request");
    w.Int(static_cast<int64_t>(span.request));
    w.EndObject();
    out << w.TakeString() << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
