// serve-mixed: online COUNT serving over loopback with an in-process
// QueryServer.
//
// One synthetic dataset is published twice with Cluster+Apriori (k=5, m=2):
// "hot" keeps the answer LRU on, "cold" turns it off. A closed loop over
// kConnections client connections alternates a hot COUNT (from a 32-query
// set that always hits the LRU after warm-up) and a cold COUNT (from a
// 2000-query pool that always runs estimation). Hot COUNTs are bound by the
// serving plumbing (framing, JSON, session, the admission hop through the
// JobScheduler); cold COUNTs by estimation. The loop is closed because
// ServeClient is synchronous: each caller waits for its reply. Two
// connections, not four: on 4 cores, 4 connections swing throughput far more
// from run to run.
//
// One server serves the whole run, as a deployed daemon would. Its
// JobScheduler keeps every job it has run and rescans them all whenever a
// job with a deadline is submitted, so the server slows down with every
// COUNT it serves; serve.hit_drift_ratio reports that slowdown. Each
// connection therefore sends a fixed number of COUNTs, set by --seconds
// (kCountsPerSecond per connection per second asked for), not as many as
// fit in the time: every run takes the scheduler through the same job
// counts, and a faster host does not end on a slower server. They go out in
// passes of kBlockCounts per connection; pass_s is the median pass. Short
// passes,
// each on a new server, would stay clear of the scans, but on a shared
// 4-core VM their sub-millisecond round trips swung up to 10x between runs
// with host contention; these, dominated by the scans, swing far less.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "datagen/synthetic.h"
#include "harness.h"
#include "obs/metric_names.h"
#include "obs/metrics_registry.h"
#include "query/workload_generator.h"
#include "serve/admission.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "service/job_scheduler.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace secreta;

constexpr size_t kRecords = 5000;
constexpr size_t kHotQueries = 32;
constexpr size_t kColdQueries = 2000;
constexpr size_t kConnections = 2;
// COUNTs per connection per second of --seconds: about what one connection
// completes per second on a 4-core x86-64 VM. They are sent in passes of
// kBlockCounts per connection.
constexpr double kCountsPerSecond = 600;
constexpr size_t kBlockCounts = 500;
constexpr char kHot[] = "hot";
constexpr char kCold[] = "cold";
constexpr char kToken[] = "perfbench-token";
// In-process probe iterations of a traced run (after the load).
constexpr size_t kProtocolProbes = 20000;
constexpr size_t kHitProbes = 4000;
constexpr size_t kMissProbes = 1000;
constexpr size_t kAdmissionProbes = 4000;

SchedulerOptions ServingScheduler() {
  SchedulerOptions options;
  options.num_workers = kConnections;
  options.max_queue = 4096;
  return options;
}

// Both releases with their query sets and wire-rounded oracle answers.
struct Serving {
  DatasetCatalog catalog;
  std::shared_ptr<const PublishedRelease> hot;
  std::shared_ptr<const PublishedRelease> cold;
  std::vector<std::string> hot_queries;
  std::vector<std::string> cold_queries;
  std::vector<double> hot_oracle;
  std::vector<double> cold_oracle;
};

std::vector<std::string> QueryLines(const Dataset& dataset, size_t count,
                                    uint64_t seed) {
  WorkloadGenOptions options;
  options.num_queries = count;
  options.seed = seed;
  const Workload workload =
      Need(GenerateWorkload(dataset, options), "generate queries");
  std::vector<std::string> lines;
  for (const CountQuery& query : workload.queries()) {
    lines.push_back(query.ToString());
  }
  return lines;
}

std::vector<double> Oracle(const PublishedRelease& release,
                           const std::vector<std::string>& queries) {
  std::vector<double> answers;
  for (const std::string& query : queries) {
    answers.push_back(WireRound(
        Need(release.CountLine(query, AccessLevel::kAnonymized), "oracle")
            .count));
  }
  return answers;
}

std::unique_ptr<Serving> BuildServing(uint64_t seed, SpanLog* log) {
  auto serving = std::make_unique<Serving>();
  Dataset hot_data;
  {
    ScopedSpan span(log, "datagen.generate");
    SyntheticOptions gen;
    gen.num_records = kRecords;
    gen.seed = DeriveSeed(seed, 11);
    hot_data = Need(GenerateRtDataset(gen), "generate dataset");
    serving->hot_queries =
        QueryLines(hot_data, kHotQueries, DeriveSeed(seed, 12));
    serving->cold_queries =
        QueryLines(hot_data, kColdQueries, DeriveSeed(seed, 13));
  }
  ReleaseOptions options;
  options.config.mode = AnonMode::kRt;
  options.config.relational_algorithm = "Cluster";
  options.config.transaction_algorithm = "Apriori";
  options.config.params.k = 5;
  options.config.params.m = 2;
  options.answer_cache_capacity = 1024;
  {
    ScopedSpan span(log, "serve.publish_hot");
    serving->hot =
        Need(serving->catalog.Publish(kHot, Dataset(hot_data), options),
             "publish");
  }
  options.answer_cache_capacity = 0;
  {
    ScopedSpan span(log, "serve.publish_cold");
    serving->cold = Need(
        serving->catalog.Publish(kCold, std::move(hot_data), options),
        "publish");
  }
  {
    // Also the hot LRU's warm-up: every hot query is cached from here on.
    ScopedSpan span(log, "serve.oracle");
    serving->hot_oracle = Oracle(*serving->hot, serving->hot_queries);
    serving->cold_oracle = Oracle(*serving->cold, serving->cold_queries);
  }
  return serving;
}

// Round trips (and the server's own time) of the COUNTs that succeeded.
struct Samples {
  std::vector<double> hit, miss;                // seconds
  std::vector<double> server_hit, server_miss;  // server_seconds
  std::vector<double> all;  // every COUNT; +inf for any that did not succeed
};

void Append(std::vector<double>* into, const std::vector<double>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

void Absorb(Samples* into, const Samples& from) {
  Append(&into->hit, from.hit);
  Append(&into->miss, from.miss);
  Append(&into->server_hit, from.server_hit);
  Append(&into->server_miss, from.server_miss);
  Append(&into->all, from.all);
}

// One client connection, kept open for the whole run.
struct Connection {
  size_t index = 0;
  ServeClient client;
  size_t sent = 0;  ///< COUNTs sent so far: picks the next query
  OpCounts ops;
  Samples plain, traced;  // by the kind of block they were sent in
  // Median hot round trip of each untraced block, in order.
  std::vector<double> block_hit_p50;
  SpanLog log;
};

// Sends `counts` COUNTs over `conn`, alternating hot and cold. When
// `traced`, every COUNT gets a span with its request id.
void SendBlock(const Serving& serving, size_t counts, bool traced,
               Connection* conn) {
  Samples& samples = traced ? conn->traced : conn->plain;
  std::vector<double> block_hits;
  for (size_t n = 0; n < counts; ++n) {
    const size_t i = conn->sent++;
    const bool hot = i % 2 == 0;
    const size_t pick = conn->index * 997 + i / 2;
    const std::string& query =
        hot ? serving.hot_queries[pick % kHotQueries]
            : serving.cold_queries[pick % kColdQueries];
    const double oracle = hot ? serving.hot_oracle[pick % kHotQueries]
                              : serving.cold_oracle[pick % kColdQueries];
    const uint64_t request = (uint64_t{conn->index + 1} << 40) | i;
    Stopwatch watch;
    Result<ServeClient::CountResult> answer = Status::Internal("not sent");
    {
      ScopedSpan span(traced ? &conn->log : nullptr,
                      hot ? "serve.roundtrip_hit" : "serve.roundtrip_miss",
                      request);
      answer = conn->client.Count(hot ? kHot : kCold, query);
    }
    const double roundtrip = watch.ElapsedSeconds();
    if (!answer.ok()) {
      if (answer.status().code() == StatusCode::kResourceExhausted) {
        ++conn->ops.rejected;
      } else {
        ++conn->ops.failed;
      }
      samples.all.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    if (!WireMatches(answer->count, oracle) || answer->cached != hot) {
      ++conn->ops.mismatched;
      samples.all.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++conn->ops.ok;
    samples.all.push_back(roundtrip);
    (hot ? samples.hit : samples.miss).push_back(roundtrip);
    (hot ? samples.server_hit : samples.server_miss)
        .push_back(answer->server_seconds);
    if (hot) block_hits.push_back(roundtrip);
  }
  if (!traced && !block_hits.empty()) {
    conn->block_hit_p50.push_back(Median(block_hits));
  }
}

uint64_t CacheCounter(const char* family, const char* dataset) {
  return MetricsRegistry::Global()
      .counter(family, {{"dataset", dataset}})
      ->value();
}

uint64_t CacheHits() {
  return CacheCounter(metric_names::kServeCacheHits, kHot) +
         CacheCounter(metric_names::kServeCacheHits, kCold);
}

uint64_t CacheLookups() {
  return CacheHits() + CacheCounter(metric_names::kServeCacheMisses, kHot) +
         CacheCounter(metric_names::kServeCacheMisses, kCold);
}

double MedianUs(const std::vector<double>& seconds) {
  return Median(seconds) * 1e6;
}

// The in-process stage probes of a traced run: each times one layer's
// public entry point on its own, with no socket in the way.
struct StageProbes {
  double protocol_us = 0;
  double catalog_hit_us = 0;
  double catalog_miss_us = 0;
  double admission_queue_us = 0;
  double admission_run_us = 0;
};

StageProbes ProbeStages(const Serving& serving, SpanLog* log,
                        Report* report) {
  StageProbes probes;
  for (size_t i = 0; i < kProtocolProbes; ++i) {
    ScopedSpan span(log, "serve.protocol", i + 1);
    ServeRequest request;
    request.op = ServeOp::kCount;
    request.id = i + 1;
    request.dataset = kHot;
    request.query = serving.hot_queries[i % kHotQueries];
    Result<ServeRequest> parsed =
        ParseServeRequest(SerializeServeRequest(request));
    Result<ServeResponse> response = ParseServeResponse(CountResponsePayload(
        request.id, serving.hot_oracle[i % kHotQueries], "anonymized",
        /*cached=*/true, 2.5e-4));
    if (!parsed.ok() || !response.ok() || parsed->query != request.query) {
      report->Fail("protocol round trip failed in-process");
      break;
    }
  }
  probes.protocol_us = MedianUs(log->Durations("serve.protocol"));

  auto probe_catalog = [&](const PublishedRelease& release,
                           const std::vector<std::string>& queries,
                           const std::vector<double>& oracle, size_t count,
                           const char* name) {
    for (size_t i = 0; i < count; ++i) {
      Result<PublishedRelease::CountAnswer> answer = Status::Internal("");
      {
        ScopedSpan span(log, name, i + 1);
        answer = release.CountLine(queries[i % queries.size()],
                                   AccessLevel::kAnonymized);
      }
      if (!answer.ok() ||
          WireRound(answer->count) != oracle[i % queries.size()]) {
        report->Fail(std::string(name) + " disagrees with the oracle");
        break;
      }
    }
    return MedianUs(log->Durations(name));
  };
  probes.catalog_hit_us =
      probe_catalog(*serving.hot, serving.hot_queries, serving.hot_oracle,
                    kHitProbes, "serve.catalog.count_hit");
  probes.catalog_miss_us =
      probe_catalog(*serving.cold, serving.cold_queries, serving.cold_oracle,
                    kMissProbes, "serve.catalog.count_miss");

  // The admission hop around a no-op count, on a scheduler sized like the
  // server's: what every COUNT pays to pass through the JobScheduler.
  JobScheduler scheduler(ServingScheduler());
  AdmissionController admission(&scheduler, AdmissionOptions{});
  TenantRegistry tenants;
  TenantConfig tenant;
  tenant.name = "probe";
  tenant.token = "probe-token";
  Need(tenants.AddTenant(tenant), "probe tenant");
  std::shared_ptr<ClientSession> session =
      Need(tenants.Authenticate(tenant.token), "probe session");
  std::vector<double> queue, run;
  for (size_t i = 0; i < kAdmissionProbes; ++i) {
    AdmissionTiming timing;
    Result<double> count = Status::Internal("");
    {
      ScopedSpan span(log, "serve.admission", i + 1);
      count = admission.RunCount(
          *session, "perfbench:probe", [] { return Result<double>(0.0); },
          &timing);
    }
    if (!count.ok()) {
      report->Fail("admission probe: " + count.status().ToString());
      break;
    }
    queue.push_back(timing.queue_seconds);
    run.push_back(timing.run_seconds);
  }
  probes.admission_queue_us = MedianUs(queue);
  probes.admission_run_us = MedianUs(run);
  return probes;
}

}  // namespace

void RunServeMixed(const Options& options, Report* report) {
  report->Env("records", double(kRecords));
  report->Env("hot_queries", double(kHotQueries));
  report->Env("cold_queries", double(kColdQueries));
  report->Env("connections", double(kConnections));
  const size_t blocks = std::max<size_t>(
      1, size_t(std::llround(kCountsPerSecond * options.seconds /
                             double(kBlockCounts))));
  report->Env("counts_per_connection", double(blocks * kBlockCounts));

  SpanLog setup_log;
  SpanLog* setup_trace = options.trace ? &setup_log : nullptr;
  std::unique_ptr<Serving> serving;
  TimeSetups(0, report, [&] {
    serving.reset();
    serving = BuildServing(options.seed, setup_trace);
  });

  TenantRegistry tenants;
  TenantConfig tenant;
  tenant.name = "perfbench";
  tenant.token = kToken;
  tenant.access = AccessLevel::kAnonymized;
  Need(tenants.AddTenant(tenant), "tenant");

  JobScheduler scheduler(ServingScheduler());
  ServerOptions server_options;
  server_options.max_connections = kConnections + 1;
  QueryServer server(&serving->catalog, &tenants, &scheduler, server_options);
  Need(server.Start(), "start server");
  std::vector<Connection> connections(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    connections[c].index = c;
    Need(connections[c].client.Connect("127.0.0.1", server.port()), "connect");
    Need(connections[c].client.Hello(kToken, "perfbench"), "hello");
  }
  const uint64_t hits_before = CacheHits();
  const uint64_t lookups_before = CacheLookups();
  // The run's one pass is the whole fixed load. It goes out in blocks of
  // kBlockCounts COUNTs per connection, the connections sending each block
  // at once. A traced run traces every other block, so traced and untraced
  // blocks share the server's history.
  std::vector<double> block_s;
  Options load = options;
  load.trace = false;
  TimePasses(load, 1, nullptr, report, [&](SpanLog*) {
    for (size_t b = 0; b < blocks; ++b) {
      const bool traced = options.trace && b % 2 == 1;
      Stopwatch watch;
      std::vector<std::thread> threads;
      for (Connection& conn : connections) {
        threads.emplace_back(SendBlock, std::cref(*serving), kBlockCounts,
                             traced, &conn);
      }
      for (std::thread& thread : threads) thread.join();
      block_s.push_back(watch.ElapsedSeconds());
    }
    for (Connection& conn : connections) report->ops += conn.ops;
  });
  report->Env("block_s", block_s);
  const double hit_ratio =
      double(CacheHits() - hits_before) /
      double(std::max<uint64_t>(1, CacheLookups() - lookups_before));
  for (Connection& conn : connections) {
    conn.client.Bye().IgnoreError();  // the server closes it anyway
  }
  server.Stop();

  Samples plain, traced;
  SpanLog log;
  std::vector<double> hit_drift;
  for (const Connection& conn : connections) {
    Absorb(&plain, conn.plain);
    Absorb(&traced, conn.traced);
    log.Merge(conn.log);
    if (conn.block_hit_p50.size() >= 2) {
      hit_drift.push_back(conn.block_hit_p50.back() /
                          conn.block_hit_p50.front());
    }
  }
  const Percentile p99 = NearestRank(plain.all, 99);
  report->Env("hit_p50_ms", Median(plain.hit) * 1e3);
  report->Env("miss_p50_ms", Median(plain.miss) * 1e3);
  report->Env("count_p99_ms", p99.value * 1e3);
  report->Env("count_p99_samples", double(p99.samples));
  report->Env("count_p99_above", double(p99.above));
  if (!HasTailSupport(p99)) {
    report->Fail("fewer than 10 COUNTs above the 99th percentile");
  }
  if (!options.trace) return;

  const StageProbes probes = ProbeStages(*serving, &log, report);
  const double roundtrip_hit_us = MedianUs(traced.hit);
  const double roundtrip_miss_us = MedianUs(traced.miss);
  const double server_hit_us = MedianUs(traced.server_hit);
  const double server_miss_us = MedianUs(traced.server_miss);
  std::map<std::string, double> setup_self = setup_log.SelfSeconds();
  for (const char* layer : {"datagen.generate", "serve.publish_hot",
                            "serve.publish_cold", "serve.oracle"}) {
    report->Metric(std::string(layer) + "_s", setup_self[layer] / kSetupReps,
                   "s");
  }
  report->Metric("serve.roundtrip_hit_us", roundtrip_hit_us, "us");
  report->Metric("serve.roundtrip_miss_us", roundtrip_miss_us, "us");
  report->Metric("serve.server_hit_us", server_hit_us, "us");
  report->Metric("serve.server_miss_us", server_miss_us, "us");
  // Median round trip = wire + server, exactly, for each class.
  report->Metric("serve.wire_us", Remainder(roundtrip_hit_us, {server_hit_us}),
                 "us");
  report->Metric("serve.wire_miss_us",
                 Remainder(roundtrip_miss_us, {server_miss_us}), "us");
  report->Metric("serve.protocol_us", probes.protocol_us, "us");
  report->Metric("serve.catalog.count_hit_us", probes.catalog_hit_us, "us");
  report->Metric("serve.catalog.count_miss_us", probes.catalog_miss_us, "us");
  report->Metric("serve.admission_queue_us", probes.admission_queue_us, "us");
  report->Metric("serve.admission_run_us", probes.admission_run_us, "us");
  // Median server time = admission + catalog + remainder, exactly.
  report->Metric("serve.unattributed_us",
                 Remainder(server_hit_us, {probes.admission_queue_us,
                                           probes.admission_run_us,
                                           probes.catalog_hit_us}),
                 "us");
  report->Metric("serve.unattributed_miss_us",
                 Remainder(server_miss_us, {probes.admission_queue_us,
                                            probes.admission_run_us,
                                            probes.catalog_miss_us}),
                 "us");
  report->Metric("serve.count_p99_us", p99.value * 1e6, "us");
  report->Metric("serve.cache_hit_ratio", hit_ratio, "ratio");
  report->Metric("serve.hit_drift_ratio", Median(hit_drift), "ratio");
  report->Metric("trace.overhead_frac", AlternatingOverhead(block_s),
                 "ratio");
  report->Metric("serve.rejected", double(report->ops.rejected), "count");
  report->Metric("serve.mismatched", double(report->ops.mismatched), "count");
  setup_log.Merge(log);
  if (!setup_log.WriteJsonLines(options.out_dir + "/spans-serve-mixed.jsonl")) {
    report->Fail("cannot write the span dump");
  }
}

}  // namespace perfbench
