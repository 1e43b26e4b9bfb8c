// shard-1m: an out-of-core run over a 1M-record SBC1 file with 32 range
// shards.
//
// Each pass makes a fresh RunShardedAnonymization with relational Incognito
// at k=5 (checkpoint on, materialize and audit off) in a child process, so
// its peak RSS (the child's own VmHWM) excludes the parent's setup, then
// resumes from that checkpoint in-process with materialize and audit on. The
// fresh pass writes the checkpoint and the resume reads it back, so both
// sides of robust/ are measured; data/, merge and audit run here and in no
// other workload.
// Relational Incognito rather than Cluster+COAT: with Cluster+COAT the
// anonymize step is ~99% of the run and would hide every other layer.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/audit.h"
#include "data/column_provider.h"
#include "data/format.h"
#include "datagen/synthetic.h"
#include "engine/sharded_runner.h"
#include "harness.h"
#include "robust/checkpoint.h"
#include "robust/shard_checkpoint.h"
#include "spans.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace secreta;

constexpr size_t kRecords = 1000000;
constexpr size_t kShards = 32;

AlgorithmConfig ShardConfig() {
  AlgorithmConfig config;
  config.mode = AnonMode::kRelational;
  config.relational_algorithm = "Incognito";
  config.params.k = 5;
  config.params.m = 2;
  return config;
}

// Runs `args` (args[0] is the program path), waits for it, and returns its
// stdout. A non-zero exit is an error.
Result<std::string> RunChild(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, args[0].c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    return Status::IOError("cannot start " + args[0]);
  }
  std::string out;
  char buffer[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n > 0) {
      out.append(buffer, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("shard child process failed");
  }
  return out;
}

// What the fresh-pass child reports: its spans and its stats.
struct ChildReport {
  std::vector<Span> spans;
  std::map<std::string, std::string> stats;

  double Duration(const std::string& name) const {
    for (const Span& span : spans) {
      if (span.name == name) return 1e-9 * double(span.end_ns - span.start_ns);
    }
    return 0;
  }
};

ChildReport ParseChild(const std::string& text) {
  ChildReport report;
  std::istringstream in(text);
  std::string kind;
  while (in >> kind) {
    if (kind == "span") {
      Span span;
      in >> span.name >> span.start_ns >> span.end_ns;
      report.spans.push_back(span);
    } else {
      std::string key, value;
      in >> key >> value;
      report.stats[key] = value;
    }
  }
  return report;
}

size_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(bytes);
}

// A "<field>: <n> kB" line of /proc/self/status, in KiB; 0 if absent.
// VmHWM is the peak RSS of this process's own address space. Unlike
// getrusage's ru_maxrss it starts afresh at exec: posix_spawn runs the child
// on the parent's address space until exec, and ru_maxrss inherits that
// address space's peak.
size_t ProcStatusKb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

struct Paths {
  std::string sbc;
  std::string checkpoint;
};

// Writes the SBC1 file; returns the in-memory footprint of the dataset.
size_t Setup(uint64_t seed, const std::string& sbc, SpanLog* log) {
  Dataset dataset;
  {
    ScopedSpan span(log, "datagen.generate");
    SyntheticOptions gen;
    gen.num_records = kRecords;
    gen.seed = DeriveSeed(seed, 21);
    dataset = Need(GenerateRtDataset(gen), "generate dataset");
  }
  {
    ScopedSpan span(log, "data.convert");
    BinaryWriteOptions write;
    write.num_shards = kShards;
    Need(WriteBinaryDataset(dataset, sbc, write), "SBC1 convert");
  }
  return dataset.MemoryBytes();
}

// Sum of the durations of the spans named `name`, in seconds.
double TotalSeconds(const SpanLog& log, const std::string& name) {
  double total = 0;
  for (double seconds : log.Durations(name)) total += seconds;
  return total;
}

class ShardPasses {
 public:
  ShardPasses(const Options& options, const Paths& paths,
              size_t dataset_bytes, Report* report)
      : options_(options),
        paths_(paths),
        dataset_bytes_(dataset_bytes),
        report_(report) {}

  // One fresh pass (child process) and one resume (in-process). `log` is
  // null on untraced passes.
  void Pass(SpanLog* log) {
    std::filesystem::remove(paths_.checkpoint);
    if (parent_rss_kb_ == 0) parent_rss_kb_ = ProcStatusKb("VmRSS");
    ChildReport child;
    {
      ScopedSpan span(log, "shard.fresh_pass");
      Result<std::string> out = RunChild(
          {options_.self, "--shard-child", paths_.sbc, paths_.checkpoint});
      if (!out.ok()) {
        ++report_->ops.failed;
        report_->Fail("fresh pass: " + out.status().ToString());
        return;
      }
      child = ParseChild(*out);
      if (log != nullptr) {
        for (const Span& span : child.spans) {
          log->Add(span.name, span.start_ns, span.end_ns);
        }
      }
    }
    const double run_s =
        child.Duration("data.open") + child.Duration("engine.sharded_run");
    const std::string fresh_fp = child.stats["fingerprint"];
    if (fresh_fp.empty() || child.stats["shards"] != std::to_string(kShards)) {
      ++report_->ops.failed;
      report_->Fail("fresh pass reported no release");
      return;
    }
    (log ? traced_ : plain_).run_s.push_back(run_s);
    if (log != nullptr) {
      anonymize_s_.push_back(
          std::strtod(child.stats["anonymize_s"].c_str(), nullptr));
    }
    const double peak_kb =
        std::strtod(child.stats["peak_rss_kb"].c_str(), nullptr);
    peak_rss_mb_.push_back(peak_kb / 1024);

    std::unique_ptr<ColumnProvider> provider =
        Need(OpenColumnProvider(paths_.sbc), "open SBC1");
    ShardedRunOptions resume_options;
    resume_options.checkpoint_path = paths_.checkpoint;
    Result<ShardedRunResult> resumed = Status::Internal("");
    Stopwatch resume_watch;
    {
      ScopedSpan span(log, "engine.sharded_resume");
      resumed = RunShardedAnonymization(*provider, ShardConfig(), resume_options);
    }
    const double resume_s = resume_watch.ElapsedSeconds();
    if (!resumed.ok()) {
      ++report_->ops.failed;
      report_->Fail("resume: " + resumed.status().ToString());
      return;
    }
    (log ? traced_ : plain_).resume_s.push_back(resume_s);
    resumed_ratio_ = double(resumed->resumed_shards) / double(kShards);

    const std::string resumed_fp =
        std::to_string(resumed->release_fingerprint);
    bool correct = true;
    if (resumed_fp != fresh_fp || resumed->resumed_shards != kShards) {
      report_->Fail("resumed release differs from the fresh pass");
      correct = false;
    }
    if (first_fp_.empty()) first_fp_ = fresh_fp;
    if (fresh_fp != first_fp_) {
      report_->Fail("release fingerprint differs from the first pass");
      correct = false;
    }
    if (!resumed->audit.has_value() || !resumed->audit->k_anonymous ||
        !resumed->audit->km_anonymous) {
      report_->Fail("merged release fails its k / k^m audit");
      correct = false;
    }
    // Out of core: the fresh pass stays under half the in-memory dataset,
    // the gate bench/shard_bench applies.
    if (peak_kb <= 0 || peak_kb * 1024 >= 0.5 * double(dataset_bytes_)) {
      report_->Fail("fresh pass peak RSS is not under half the dataset");
      correct = false;
    }
    // A pass is two operations: the fresh run and the resume.
    if (correct) {
      report_->ops.ok += 2;
    } else {
      report_->ops.mismatched += 2;
    }
    if (log != nullptr) last_traced_ = std::move(*resumed);
  }

  // After the passes of a traced run: times, on their own and outside the
  // timed passes, the parts of the two runs that the runner does not report
  // separately, against the last traced pass's checkpoint and release.
  void ProbeLayers(SpanLog* log) {
    if (!last_traced_.has_value()) return;
    std::unique_ptr<ColumnProvider> provider =
        Need(OpenColumnProvider(paths_.sbc), "open SBC1");
    Probe(*provider, *last_traced_, log);
    last_traced_.reset();
  }

  void ReportMetrics(const SpanLog& log) {
    report_->Env("dataset_memory_mb", double(dataset_bytes_) / (1 << 20));
    report_->Env("parent_rss_mb_at_first_spawn", double(parent_rss_kb_) / 1024);
    report_->Env("fresh_peak_rss_mb", peak_rss_mb_);
    report_->Env("fresh_run_s", plain_.run_s);
    report_->Env("resume_s", plain_.resume_s);
    if (!options_.trace) return;
    // Means over the traced passes, so the layers add up to the totals. The
    // probes ran once.
    const double n = double(traced_.run_s.size());
    double run = 0, anonymize = 0;
    for (double s : traced_.run_s) run += s;
    for (double s : anonymize_s_) anonymize += s;
    const double resume = TotalSeconds(log, "engine.sharded_resume") / n;
    const double read = TotalSeconds(log, "robust.checkpoint_read");
    const double audit = TotalSeconds(log, "core.audit_merged");
    report_->Metric("data.open_s", TotalSeconds(log, "data.open") / n, "s");
    report_->Metric("data.materialize_shard_s",
                    TotalSeconds(log, "data.materialize_shard"), "s");
    report_->Metric("engine.shard_anonymize_s", anonymize / n, "s");
    report_->Metric("engine.shard_merge_s",
                    Remainder(TotalSeconds(log, "engine.sharded_run"),
                              {anonymize}) / n,
                    "s");
    report_->Metric("robust.checkpoint_read_s", read, "s");
    report_->Metric("core.audit_merged_s", audit, "s");
    report_->Metric("engine.resume_merge_s", Remainder(resume, {read, audit}),
                    "s");
    // The traced passes these layers break down.
    report_->Metric("engine.shard_run_traced_s", run / n, "s");
    report_->Metric("engine.shard_resume_traced_s", resume, "s");
    report_->Metric("data.sbc1_bytes", double(FileBytes(paths_.sbc)), "bytes");
    report_->Metric("robust.checkpoint_bytes",
                    double(FileBytes(paths_.checkpoint)), "bytes");
    report_->Metric("robust.resumed_ratio", resumed_ratio_, "ratio");
    report_->Metric("engine.shard_peak_rss_mb", Median(peak_rss_mb_), "MB");
  }

 private:
  void Probe(const ColumnProvider& provider, const ShardedRunResult& resumed,
             SpanLog* log) {
    const ShardPlan plan = *provider.native_plan();
    {
      ScopedSpan span(log, "data.materialize_shard");
      for (size_t s = 0; s < plan.num_shards(); ++s) {
        Need(provider.MaterializeShard(plan, s), "materialize shard");
      }
    }
    {
      ScopedSpan span(log, "robust.checkpoint_read");
      const uint64_t dataset_fp = provider.content_fingerprint();
      std::unique_ptr<ShardCheckpoint> checkpoint = Need(
          ShardCheckpoint::Open(
              paths_.checkpoint,
              CheckpointLog::PointKey(ShardConfig(), dataset_fp, 0, 0),
              dataset_fp, plan.Fingerprint()),
          "open checkpoint");
      for (size_t s = 0; s < plan.num_shards(); ++s) {
        Need(checkpoint->ReadPayload(s), "read checkpoint payload");
      }
    }
    {
      ScopedSpan span(log, "core.audit_merged");
      Need(AuditAnonymizedDataset(*resumed.merged, ShardConfig().params.k,
                                  ShardConfig().params.m, false),
           "audit merged release");
    }
  }

  struct Times {
    std::vector<double> run_s;
    std::vector<double> resume_s;
  };

  const Options& options_;
  const Paths& paths_;
  const size_t dataset_bytes_;
  Report* const report_;
  Times plain_, traced_;
  std::vector<double> anonymize_s_;  // traced passes, as the runner reports
  std::vector<double> peak_rss_mb_;
  size_t parent_rss_kb_ = 0;
  double resumed_ratio_ = 0;
  std::optional<ShardedRunResult> last_traced_;
  std::string first_fp_;
};

}  // namespace

int ShardChildMain(int argc, char** argv) {
  if (argc != 2) return 2;
  SpanLog log;
  std::unique_ptr<ColumnProvider> provider;
  {
    ScopedSpan span(&log, "data.open");
    provider = Need(OpenColumnProvider(argv[0]), "open SBC1");
  }
  ShardedRunOptions options;
  options.checkpoint_path = argv[1];
  options.materialize_result = false;
  options.audit = false;
  Result<ShardedRunResult> result = Status::Internal("");
  {
    ScopedSpan span(&log, "engine.sharded_run");
    result = RunShardedAnonymization(*provider, ShardConfig(), options);
  }
  if (!result.ok()) Die("sharded run", result.status());
  const size_t peak_rss_kb = ProcStatusKb("VmHWM");
  for (const Span& span : log.spans()) {
    std::printf("span %s %lld %lld\n", span.name.c_str(),
                static_cast<long long>(span.start_ns),
                static_cast<long long>(span.end_ns));
  }
  std::printf("stat anonymize_s %.17g\n", result->anonymize_seconds);
  std::printf("stat fingerprint %llu\n",
              static_cast<unsigned long long>(result->release_fingerprint));
  std::printf("stat shards %zu\n", result->plan.num_shards());
  std::printf("stat peak_rss_kb %zu\n", peak_rss_kb);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

void RunShard1m(const Options& options, Report* report) {
  report->Env("records", double(kRecords));
  report->Env("shards", double(kShards));
  const std::string stem =
      options.out_dir + "/shard-" + std::to_string(getpid());
  const Paths paths{stem + ".sbc", stem + ".ckpt"};

  SpanLog log;
  SpanLog* trace = options.trace ? &log : nullptr;
  size_t dataset_bytes = 0;
  TimeSetups(0, report, [&] {
    dataset_bytes = Setup(options.seed, paths.sbc, trace);
  });

  ShardPasses passes(options, paths, dataset_bytes, report);
  TimePasses(options, 0, trace, report,
             [&](SpanLog* pass_log) { passes.Pass(pass_log); });
  if (trace != nullptr) passes.ProbeLayers(trace);
  passes.ReportMetrics(log);
  if (options.trace) {
    std::map<std::string, double> self = log.SelfSeconds();
    report->Metric("datagen.generate_s", self["datagen.generate"] / kSetupReps,
                   "s");
    report->Metric("data.convert_s", self["data.convert"] / kSetupReps, "s");
    if (!log.WriteJsonLines(options.out_dir + "/spans-shard-1m.jsonl")) {
      report->Fail("cannot write the span dump");
    }
  }
  std::filesystem::remove(paths.sbc);
  std::filesystem::remove(paths.checkpoint);
}

}  // namespace perfbench
