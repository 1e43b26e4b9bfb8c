// Telemetry-layer tests: dimensioned (labeled) metric series, custom
// histogram bucket bounds and quantile estimation, the Prometheus text
// exposition writer, the tail-sampled trace ring, the slow-query JSONL
// sink, the metrics --watch delta renderer, and Chrome trace export under
// concurrent span emission (validated by the serving layer's hardened JSON
// parser, which is independent of the tracer's writer).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/prometheus.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/trace_tail.h"
#include "serve/json.h"
#include "tests/test_util.h"

namespace secreta {
namespace {

// ---------------------------------------------------------------------------
// Labeled series

TEST(LabeledMetricsTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter* ab = registry.counter(
      "telemetry_test.requests", {{"tenant", "a"}, {"dataset", "b"}});
  Counter* ba = registry.counter(
      "telemetry_test.requests", {{"dataset", "b"}, {"tenant", "a"}});
  EXPECT_EQ(ab, ba);  // same series, same handle

  // Different label values are different series of the same family.
  Counter* other =
      registry.counter("telemetry_test.requests",
                       {{"tenant", "a"}, {"dataset", "c"}});
  EXPECT_NE(ab, other);

  // Duplicate keys collapse to the last value given.
  Counter* dup = registry.counter("telemetry_test.dup",
                                  {{"k", "old"}, {"k", "new"}});
  EXPECT_EQ(dup, registry.counter("telemetry_test.dup", {{"k", "new"}}));

  // The unlabeled overload is the family's empty-label series.
  EXPECT_EQ(registry.counter("telemetry_test.requests"),
            registry.counter("telemetry_test.requests", {}));
}

TEST(LabeledMetricsTest, RenderFormat) {
  EXPECT_EQ((MetricKey{"serve.requests", {}}.Render()), "serve.requests");
  MetricKey key{"serve.requests", {{"code", "ok"}, {"tenant", "analyst"}}};
  EXPECT_EQ(key.Render(), "serve.requests{code=\"ok\",tenant=\"analyst\"}");
}

TEST(LabeledMetricsTest, SnapshotOrderingIsDeterministic) {
  MetricsRegistry registry;
  // Register in scrambled order; snapshots must come back sorted by
  // (name, labels) regardless.
  registry.counter("z.family")->Increment();
  registry.counter("a.family", {{"t", "2"}})->Increment();
  registry.counter("a.family", {{"t", "1"}})->Increment();
  registry.counter("a.family")->Increment();

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 4u);
  EXPECT_EQ(snap.counters[0].first.Render(), "a.family");
  EXPECT_EQ(snap.counters[1].first.Render(), "a.family{t=\"1\"}");
  EXPECT_EQ(snap.counters[2].first.Render(), "a.family{t=\"2\"}");
  EXPECT_EQ(snap.counters[3].first.Render(), "z.family");

  MetricsSnapshot again = registry.Snapshot();
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(snap.counters[i].first, again.counters[i].first);
  }
}

// ---------------------------------------------------------------------------
// Histograms: custom bounds, clamping, quantiles

TEST(HistogramTest, CustomBoundsAreUsedAndInvalidBoundsFallBack) {
  MetricsRegistry registry;
  const std::vector<double> bounds = {0.1, 0.2, 0.4};
  LatencyHistogram* custom =
      registry.histogram("telemetry_test.phase", {{"phase", "p1"}}, bounds);
  EXPECT_EQ(custom->bounds(), bounds);
  // The handle is stable: a second lookup with different bounds returns the
  // already-registered histogram unchanged.
  EXPECT_EQ(registry.histogram("telemetry_test.phase", {{"phase", "p1"}},
                               {1.0, 2.0}),
            custom);

  // Invalid bounds (non-increasing, non-finite, empty) fall back to the
  // defaults instead of corrupting bucket indexing.
  LatencyHistogram not_increasing({0.5, 0.2});
  EXPECT_EQ(not_increasing.bounds(), LatencyHistogram::BucketBounds());
  LatencyHistogram not_finite({0.1, std::nan("")});
  EXPECT_EQ(not_finite.bounds(), LatencyHistogram::BucketBounds());
  LatencyHistogram empty(std::vector<double>{});
  EXPECT_EQ(empty.bounds(), LatencyHistogram::BucketBounds());
}

TEST(HistogramTest, RecordClampsNegativeNanAndInfinity) {
  LatencyHistogram histogram({0.1, 1.0});
  histogram.Record(-5.0);
  histogram.Record(std::nan(""));
  histogram.Record(std::numeric_limits<double>::infinity());

  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_TRUE(std::isfinite(snap.sum_seconds));
  EXPECT_EQ(snap.min_seconds, 0.0);     // negative and NaN clamp to 0
  EXPECT_EQ(snap.buckets[0], 2u);       // the two clamped-to-zero samples
  EXPECT_EQ(snap.buckets.back(), 1u);   // +inf lands in the overflow bucket
  EXPECT_TRUE(std::isfinite(snap.max_seconds));
}

TEST(HistogramTest, QuantileEstimation) {
  LatencyHistogram histogram({0.01, 0.1, 1.0});
  EXPECT_EQ(histogram.Snapshot().Quantile(0.5), 0.0);  // empty

  // 90 fast samples, 10 slow ones: p50 sits in the fast bucket, p99 in the
  // slow one, and the extremes clamp to the observed min/max.
  for (int i = 0; i < 90; ++i) histogram.Record(0.005);
  for (int i = 0; i < 10; ++i) histogram.Record(0.5);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_LE(snap.Quantile(0.5), 0.01);
  EXPECT_GT(snap.Quantile(0.99), 0.1);
  // The extremes clamp to the observed range (q=0 is an estimate within the
  // first bucket, never below the observed min; q=1 is the observed max).
  EXPECT_GE(snap.Quantile(0.0), snap.min_seconds);
  EXPECT_LE(snap.Quantile(0.0), 0.01);
  EXPECT_EQ(snap.Quantile(1.0), snap.max_seconds);
  // Out-of-range q clamps instead of misbehaving.
  EXPECT_EQ(snap.Quantile(7.0), snap.max_seconds);
  EXPECT_EQ(snap.Quantile(-1.0), snap.Quantile(0.0));
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("serve.requests"), "serve_requests");
  EXPECT_EQ(PrometheusName("pool.task_run_seconds"), "pool_task_run_seconds");
  EXPECT_EQ(PrometheusName("9starts_with_digit"), "_starts_with_digit");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST(PrometheusTest, ExpositionFormat) {
  MetricsRegistry registry;
  registry.counter("serve.requests", {{"tenant", "analyst"}, {"code", "ok"}})
      ->Increment(3);
  registry.counter("serve.requests", {{"tenant", "admin"}, {"code", "ok"}})
      ->Increment(1);
  registry.gauge("jobs.queue.depth")->Set(4);
  LatencyHistogram* histogram =
      registry.histogram("serve.count.seconds", {{"tenant", "analyst"}},
                         {0.1, 1.0});
  histogram->Record(0.05);
  histogram->Record(0.05);
  histogram->Record(5.0);

  std::string text = MetricsSnapshotToPrometheus(registry.Snapshot());

  // Counters: sanitized family + _total, one TYPE header for both series.
  EXPECT_NE(text.find("# TYPE serve_requests_total counter\n"),
            std::string::npos);
  size_t first = text.find("# TYPE serve_requests_total");
  EXPECT_EQ(text.find("# TYPE serve_requests_total", first + 1),
            std::string::npos);
  EXPECT_NE(
      text.find("serve_requests_total{code=\"ok\",tenant=\"analyst\"} 3\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("serve_requests_total{code=\"ok\",tenant=\"admin\"} 1\n"),
      std::string::npos);

  // Gauge.
  EXPECT_NE(text.find("# TYPE jobs_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("jobs_queue_depth 4\n"), std::string::npos);

  // Histogram: cumulative buckets ending at +Inf == _count, plus _sum.
  EXPECT_NE(text.find("# TYPE serve_count_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("serve_count_seconds_bucket{tenant=\"analyst\",le=\"0.1\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("serve_count_seconds_bucket{tenant=\"analyst\",le=\"1\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "serve_count_seconds_bucket{tenant=\"analyst\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("serve_count_seconds_count{tenant=\"analyst\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("serve_count_seconds_sum{tenant=\"analyst\"}"),
            std::string::npos);
}

TEST(PrometheusTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.counter("family", {{"q", "a\"b\\c\nd"}})->Increment();
  std::string text = MetricsSnapshotToPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("family_total{q=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Tail-sampled trace ring

RequestTrace MakeTrace(TraceTail& tail, bool slow, bool error) {
  RequestTrace trace;
  trace.trace_id = tail.NextTraceId();
  trace.tenant = "analyst";
  trace.dataset = "demo";
  trace.query_shape = "Age:*";
  trace.outcome = error ? "NotFound" : "ok";
  trace.kernel_tier = "scalar";
  trace.total_seconds = slow ? 0.9 : 0.001;
  trace.slow = slow;
  trace.error = error;
  return trace;
}

TEST(TraceTailTest, PinsOnlySlowOrErroredTraces) {
  TraceTail tail(8);
  tail.Record(MakeTrace(tail, /*slow=*/false, /*error=*/false));
  EXPECT_TRUE(tail.Snapshot().empty());  // healthy+fast is not retained

  tail.Record(MakeTrace(tail, /*slow=*/true, /*error=*/false));
  tail.Record(MakeTrace(tail, /*slow=*/false, /*error=*/true));
  std::vector<RequestTrace> pinned = tail.Snapshot();
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_TRUE(pinned[0].slow);           // oldest first
  EXPECT_TRUE(pinned[1].error);
  EXPECT_LT(pinned[0].trace_id, pinned[1].trace_id);

  tail.Clear();
  EXPECT_TRUE(tail.Snapshot().empty());
}

TEST(TraceTailTest, BoundedRingEvictsOldestAndSetCapacityShrinks) {
  TraceTail tail(3);
  for (int i = 0; i < 5; ++i) {
    tail.Record(MakeTrace(tail, /*slow=*/true, /*error=*/false));
  }
  std::vector<RequestTrace> pinned = tail.Snapshot();
  ASSERT_EQ(pinned.size(), 3u);
  // The two oldest were evicted; ids are process-unique and increasing.
  EXPECT_LT(pinned[0].trace_id, pinned[1].trace_id);
  EXPECT_LT(pinned[1].trace_id, pinned[2].trace_id);

  tail.SetCapacity(1);
  ASSERT_EQ(tail.Snapshot().size(), 1u);
  EXPECT_EQ(tail.Snapshot()[0].trace_id, pinned[2].trace_id);  // newest kept
  EXPECT_EQ(tail.capacity(), 1u);
}

TEST(TraceTailTest, NextTraceIdIsUniqueAcrossThreads) {
  TraceTail tail(1);
  std::vector<std::thread> threads;
  std::vector<std::vector<uint64_t>> per_thread(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tail, &per_thread, t] {
      for (int i = 0; i < 1000; ++i) {
        per_thread[t].push_back(tail.NextTraceId());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<uint64_t> ids;
  for (const auto& chunk : per_thread) ids.insert(chunk.begin(), chunk.end());
  EXPECT_EQ(ids.size(), 4000u);
  EXPECT_EQ(ids.count(0), 0u);  // 0 is never issued
}

TEST(TraceTailTest, WriteJsonlRoundTripsThroughServeParser) {
  TraceTail tail(4);
  tail.Record(MakeTrace(tail, /*slow=*/true, /*error=*/false));
  tail.Record(MakeTrace(tail, /*slow=*/false, /*error=*/true));

  std::string path = ::testing::TempDir() + "/secreta_trace_tail.jsonl";
  ASSERT_OK(tail.WriteJsonl(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_OK_AND_ASSIGN(JsonValue row, JsonValue::Parse(line));
    ASSERT_OK_AND_ASSIGN(uint64_t trace_id, row.GetUint("trace_id"));
    EXPECT_GT(trace_id, 0u);
    ASSERT_OK_AND_ASSIGN(std::string tenant, row.GetString("tenant"));
    EXPECT_EQ(tenant, "analyst");
    ASSERT_OK_AND_ASSIGN(std::string shape, row.GetString("query_shape"));
    EXPECT_EQ(shape, "Age:*");
    EXPECT_OK(row.GetNumber("total_seconds").status());
    EXPECT_OK(row.GetBoolOr("slow", false).status());
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Slow-query JSONL sink

TEST(SlowQueryLogTest, DisabledLogIsANoOp) {
  SlowQueryLog log;
  EXPECT_FALSE(log.enabled());
  RequestTrace trace;
  trace.trace_id = 7;
  log.Record(trace);  // silently dropped
  EXPECT_EQ(log.records_written(), 0u);
  log.Close();  // idempotent on a never-opened log
}

TEST(SlowQueryLogTest, WritesParsableJsonlRecords) {
  std::string path = ::testing::TempDir() + "/secreta_slow_queries.jsonl";
  SlowQueryLog log;
  ASSERT_OK(log.Open(path));
  EXPECT_TRUE(log.enabled());

  RequestTrace trace;
  trace.trace_id = 42;
  trace.tenant = "analyst";
  trace.dataset = "demo";
  trace.query_shape = "Age:*;items:*";
  trace.kernel_tier = "scalar";
  trace.run_seconds = 0.3;
  trace.total_seconds = 0.32;
  trace.cached = false;
  trace.slow = true;
  log.Record(trace);
  EXPECT_EQ(log.records_written(), 1u);
  log.Close();
  EXPECT_FALSE(log.enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  ASSERT_OK_AND_ASSIGN(JsonValue row, JsonValue::Parse(line));
  ASSERT_OK_AND_ASSIGN(uint64_t trace_id, row.GetUint("trace_id"));
  EXPECT_EQ(trace_id, 42u);
  ASSERT_OK_AND_ASSIGN(std::string tenant, row.GetString("tenant"));
  EXPECT_EQ(tenant, "analyst");
  ASSERT_OK_AND_ASSIGN(std::string shape, row.GetString("query_shape"));
  EXPECT_EQ(shape, "Age:*;items:*");
  ASSERT_OK_AND_ASSIGN(double total, row.GetNumber("total_seconds"));
  EXPECT_NEAR(total, 0.32, 1e-9);
  // The log line is the trace's own JSONL row, field for field.
  EXPECT_EQ(line, RequestTraceToJsonLine(trace));
  EXPECT_FALSE(std::getline(in, line));  // exactly one record
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// metrics --watch delta rendering

TEST(MetricsDeltaTest, ReportsCounterGaugeAndHistogramMovement) {
  MetricsRegistry registry;
  Counter* requests = registry.counter("watch.requests", {{"tenant", "a"}});
  Counter* idle = registry.counter("watch.idle");
  Gauge* depth = registry.gauge("watch.depth");
  LatencyHistogram* latency = registry.histogram("watch.seconds");
  requests->Increment(2);
  idle->Increment(5);
  depth->Set(1);

  MetricsSnapshot before = registry.Snapshot();
  requests->Increment(3);
  depth->Set(4);
  latency->Record(0.01);
  MetricsSnapshot after = registry.Snapshot();

  std::string text = MetricsSnapshotDeltaToText(before, after, 2.0);
  EXPECT_NE(text.find("watch.requests{tenant=\"a\"} +3 (1.5/s)"),
            std::string::npos);
  EXPECT_NE(text.find("watch.depth 4 (was 1)"), std::string::npos);
  EXPECT_NE(text.find("watch.seconds count +1"), std::string::npos);
  // Unchanged series are omitted entirely.
  EXPECT_EQ(text.find("watch.idle"), std::string::npos);

  EXPECT_EQ(MetricsSnapshotDeltaToText(after, after, 2.0), "(no change)\n");
}

// ---------------------------------------------------------------------------
// Chrome trace export under concurrent span emission, validated with the
// serving layer's hardened JSON parser (satellite: the tracer's writer and
// the obs_test parser share no code with serve/json.h, so a serialization
// bug cannot cancel out here either).

TEST(ChromeTraceConcurrencyTest, ConcurrentSpansExportParsableJson) {
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan outer(std::string_view("telemetry_test.outer"));
        ScopedSpan inner(std::string_view("telemetry_test.inner"));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  tracer.Disable();

  ASSERT_OK_AND_ASSIGN(JsonValue trace,
                       JsonValue::Parse(tracer.ToChromeTraceJson()));
  const JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t x_events = 0;
  std::set<double> tids;
  for (const JsonValue& event : events->elements()) {
    ASSERT_OK_AND_ASSIGN(std::string ph, event.GetString("ph"));
    if (ph != "X") continue;
    ++x_events;
    EXPECT_OK(event.GetString("name").status());
    EXPECT_OK(event.GetNumber("ts").status());
    ASSERT_OK_AND_ASSIGN(double dur, event.GetNumber("dur"));
    EXPECT_GE(dur, 0.0);
    ASSERT_OK_AND_ASSIGN(double tid, event.GetNumber("tid"));
    tids.insert(tid);
  }
  // Every span from every thread survived the concurrent export intact.
  EXPECT_EQ(x_events, static_cast<size_t>(kThreads * kSpansPerThread * 2));
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  tracer.Reset();
}

}  // namespace
}  // namespace secreta
