#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/stopwatch.h"
#include "data/shard.h"
#include "export/json_writer.h"
#include "kernels/kernels.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"ops_per_s", "1/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    // compare-rt
    {"datagen.generate_s", "s"},
    {"hierarchy.build_s", "s"},
    {"core.context_s", "s"},
    {"query.bind_s", "s"},
    {"algo.cluster-apriori.anonymize_s", "s"},
    {"algo.incognito-coat.anonymize_s", "s"},
    {"algo.topdown-pcta.anonymize_s", "s"},
    {"algo.bottomup-lra.anonymize_s", "s"},
    {"algo.cluster-vpa.anonymize_s", "s"},
    {"engine.report_s", "s"},
    {"core.materialize_s", "s"},
    {"core.audit_s", "s"},
    {"engine.compare_unattributed_s", "s"},
    {"engine.compare_traced_s", "s"},
    {"engine.compare_methods_s", "s"},
    {"engine.cells", "count"},
    {"query.are_queries", "count"},
    {"core.audit_pass_ratio", "ratio"},
    // serve-mixed
    {"serve.publish_hot_s", "s"},
    {"serve.publish_cold_s", "s"},
    {"serve.oracle_s", "s"},
    {"serve.roundtrip_hit_us", "us"},
    {"serve.roundtrip_miss_us", "us"},
    {"serve.server_hit_us", "us"},
    {"serve.server_miss_us", "us"},
    {"serve.wire_us", "us"},
    {"serve.wire_miss_us", "us"},
    {"serve.protocol_us", "us"},
    {"serve.catalog.count_hit_us", "us"},
    {"serve.catalog.count_miss_us", "us"},
    {"serve.admission_queue_us", "us"},
    {"serve.admission_run_us", "us"},
    {"serve.unattributed_us", "us"},
    {"serve.unattributed_miss_us", "us"},
    {"serve.count_p99_us", "us"},
    {"serve.hit_drift_ratio", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.mismatched", "count"},
    // shard-1m
    {"data.convert_s", "s"},
    {"data.open_s", "s"},
    {"data.materialize_shard_s", "s"},
    {"engine.shard_anonymize_s", "s"},
    {"engine.shard_merge_s", "s"},
    {"robust.checkpoint_read_s", "s"},
    {"core.audit_merged_s", "s"},
    {"engine.resume_merge_s", "s"},
    {"engine.shard_run_traced_s", "s"},
    {"engine.shard_resume_traced_s", "s"},
    {"engine.shard_peak_rss_mb", "MB"},
    {"data.sbc1_bytes", "bytes"},
    {"robust.checkpoint_bytes", "bytes"},
    {"robust.resumed_ratio", "ratio"},
    // every workload
    {"trace.overhead_frac", "ratio"},
};

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // The engine's per-shard derivation: every stream >= 1 is mixed, so
  // nearby seeds give unrelated inputs.
  return secreta::ShardSeed(seed, stream);
}

void Die(const std::string& what, const secreta::Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Env(const std::string& key, const std::string& value) {
  env_text_.emplace_back(key, value);
}

void Report::Env(const std::string& key, double value) {
  env_numbers_.emplace_back(key, value);
}

void Report::Env(const std::string& key, const std::vector<double>& samples) {
  env_samples_.emplace_back(key, samples);
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  problems_.push_back(why);
}

namespace {

const MetricSpec* Find(const std::vector<MetricSpec>& table,
                       const std::string& name) {
  for (const MetricSpec& spec : table) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

int Report::Print(bool trace) {
  // The result's metrics first: a metric the tables do not list, one in the
  // wrong unit, or a missing end-to-end metric makes the run incorrect.
  for (const auto& [name, value_unit] : metrics_) {
    const MetricSpec* spec = Find(kEndToEnd, name);
    if (spec == nullptr) spec = Find(kPerLayer, name);
    if (spec == nullptr) {
      Fail("metric " + name + " is not in the metric tables");
    } else if (value_unit.second != spec->unit) {
      Fail("metric " + name + " reported in " + value_unit.second +
           ", listed in " + spec->unit);
    }
  }
  std::vector<std::pair<const MetricSpec*, double>> rows;
  for (const MetricSpec& spec : trace ? kPerLayer : kEndToEnd) {
    const auto it = metrics_.find(spec.name);
    if (it == metrics_.end() && !trace) {
      Fail(std::string("no value for ") + spec.name);
    }
    const double value = it == metrics_.end() ? 0.0 : it->second.first;
    if (!std::isfinite(value)) Fail(std::string("no finite value for ") + spec.name);
    rows.emplace_back(&spec, std::isfinite(value) ? value : 0.0);
  }

  secreta::JsonWriter env;
  env.BeginObject();
  for (const auto& [key, value] : env_text_) {
    env.Key(key);
    env.String(value);
  }
  for (const auto& [key, value] : env_numbers_) {
    env.Key(key);
    env.Number(value);
  }
  for (const auto& [key, samples] : env_samples_) {
    env.Key(key);
    env.BeginArray();
    for (double sample : samples) env.Number(sample);
    env.EndArray();
  }
  env.EndObject();
  std::printf("perfbench-env %s\n", env.TakeString().c_str());

  secreta::JsonWriter detail;
  detail.BeginObject();
  detail.Key("attempted");
  detail.Int(static_cast<int64_t>(ops.attempted()));
  detail.Key("ok");
  detail.Int(static_cast<int64_t>(ops.ok));
  detail.Key("failed");
  detail.Int(static_cast<int64_t>(ops.failed));
  detail.Key("rejected");
  detail.Int(static_cast<int64_t>(ops.rejected));
  detail.Key("mismatched");
  detail.Int(static_cast<int64_t>(ops.mismatched));
  detail.Key("failed_fraction");
  detail.Number(ops.failed_fraction());
  detail.Key("problems");
  detail.BeginArray();
  for (const std::string& problem : problems_) detail.String(problem);
  detail.EndArray();
  detail.EndObject();
  std::printf("perfbench-detail %s\n", detail.TakeString().c_str());

  const bool correct = problems_.empty() && ops.not_ok() == 0 &&
                       ops.attempted() > 0;
  secreta::JsonWriter result;
  result.BeginObject();
  result.Key("correct");
  result.Bool(correct);
  result.Key("attempted");
  result.Int(static_cast<int64_t>(ops.attempted()));
  result.Key("failed");
  result.Int(static_cast<int64_t>(ops.not_ok()));
  result.Key("metrics");
  result.BeginObject();
  for (const auto& [spec, value] : rows) {
    result.Key(spec->name);
    result.BeginObject();
    result.Key("value");
    result.Number(value);
    result.Key("unit");
    result.String(spec->unit);
    result.EndObject();
  }
  result.EndObject();
  result.EndObject();
  std::printf("%s\n", result.TakeString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void RecordMachine(const Options& options, Report* report) {
  report->Env("workload", options.workload);
  report->Env("kernel_tier", secreta::kernels::ActiveTierName());
  report->Env("build_type", PERFBENCH_BUILD_TYPE);
  report->Env("compiler", PERFBENCH_COMPILER);
  report->Env("nproc", double(std::thread::hardware_concurrency()));
  report->Env("seed", double(options.seed));
  report->Env("seconds", options.seconds);
  report->Env("trace", options.trace ? 1.0 : 0.0);
}

std::vector<double> TimeSetups(double min_seconds, Report* report,
                               const std::function<void()>& setup) {
  std::vector<double> seconds;
  secreta::Stopwatch phase;
  while (seconds.size() < size_t(kSetupReps) ||
         phase.ElapsedSeconds() < min_seconds) {
    secreta::Stopwatch watch;
    setup();
    seconds.push_back(watch.ElapsedSeconds());
  }
  report->Env("setup_s", seconds);
  report->Metric("setup_s", Median(seconds), "s");
  return seconds;
}

PassTimes TimePasses(const Options& options, size_t fixed_passes,
                     SpanLog* trace, Report* report,
                     const std::function<void(SpanLog*)>& pass) {
  PassTimes times;
  const size_t min_passes = options.trace ? 4 : 3;
  uint64_t plain_ok = 0;
  secreta::Stopwatch total;
  for (size_t i = 0;; ++i) {
    const bool done = fixed_passes > 0
                          ? i >= fixed_passes
                          : i >= min_passes &&
                                total.ElapsedSeconds() >= options.seconds;
    if (done) break;
    const bool traced = options.trace && i % 2 == 1;
    const uint64_t ok_before = report->ops.ok;
    secreta::Stopwatch watch;
    pass(traced ? trace : nullptr);
    (traced ? times.traced : times.plain).push_back(watch.ElapsedSeconds());
    if (!traced) plain_ok += report->ops.ok - ok_before;
  }
  double plain_seconds = 0;
  for (double seconds : times.plain) plain_seconds += seconds;
  report->Env("pass_s", times.plain);
  report->Metric("pass_s", Median(times.plain), "s");
  report->Metric("ops_per_s", double(plain_ok) / plain_seconds, "1/s");
  if (options.trace) {
    report->Env("traced_pass_s", times.traced);
    report->Metric("trace.overhead_frac",
                   Median(times.traced) / Median(times.plain) - 1, "ratio");
  }
  return times;
}

}  // namespace perfbench
