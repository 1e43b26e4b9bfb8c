// Shared plumbing of the three workloads: command-line options, seed
// derivation, the set-up and pass loops, and the result lines.
//
// Output contract: earlier stdout lines carry the machine shape and the
// operation tally ("perfbench-env {...}", "perfbench-detail {...}"); the
// last stdout line is the single JSON result object
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
// Every workload prints the same metric names: all of kEndToEnd when
// untraced, all of kPerLayer when traced (BENCHMARK.json lists both).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< scratch files and the span dump
  std::string self;     ///< this executable, for child phases
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, the same for every workload (untraced runs).
extern const std::vector<MetricSpec> kEndToEnd;
/// The per-layer metrics (traced runs). A workload reports those of the
/// layers it calls; the rest read 0, as no span of theirs was recorded.
extern const std::vector<MetricSpec> kPerLayer;

/// Independent input stream `stream` (>= 1) of the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Setup failures are fatal: message to stderr, exit code 1, no result.
[[noreturn]] void Die(const std::string& what, const secreta::Status& status);

template <typename T>
T Need(secreta::Result<T> result, const char* what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}
inline void Need(const secreta::Status& status, const char* what) {
  if (!status.ok()) Die(what, status);
}

/// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// One machine-shape or setting entry for the env line.
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);
  /// Raw samples behind a median, for the env line.
  void Env(const std::string& key, const std::vector<double>& samples);
  /// Marks the run incorrect; `why` goes to stderr and the detail line.
  void Fail(const std::string& why);

  OpCounts ops;

  /// Prints the env line, the detail line and the result line: the metrics
  /// of kPerLayer when `trace`, else those of kEndToEnd. Returns the process
  /// exit code: 0 only for a correct run.
  int Print(bool trace);

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> env_text_;
  std::vector<std::pair<std::string, double>> env_numbers_;
  std::vector<std::pair<std::string, std::vector<double>>> env_samples_;
  std::vector<std::string> problems_;
};

/// Adds nproc, kernel tier, build type, compiler and the options.
void RecordMachine(const Options& options, Report* report);

/// Calls `setup()` kSetupReps times, and again until `min_seconds` have
/// passed. Reports setup_s, the median, and returns every sample.
std::vector<double> TimeSetups(double min_seconds, Report* report,
                               const std::function<void()>& setup);

/// Times the workload's passes. `pass(log)` runs one pass and adds the
/// operations it completed to report->ops; `log` is null on an untraced
/// pass. A traced run alternates untraced and traced passes, so the two
/// medians give the tracing overhead within one process.
///
/// With `fixed_passes` > 0 exactly that many passes run; otherwise passes
/// run until options.seconds have passed, at least 3 (4 when traced).
/// Reports pass_s (median untraced pass), ops_per_s (ok operations of the
/// untraced passes over their total time) and trace.overhead_frac.
struct PassTimes {
  std::vector<double> plain, traced;
};
PassTimes TimePasses(const Options& options, size_t fixed_passes,
                     SpanLog* trace, Report* report,
                     const std::function<void(SpanLog*)>& pass);

void RunCompareRt(const Options& options, Report* report);
void RunServeMixed(const Options& options, Report* report);
void RunShard1m(const Options& options, Report* report);
/// Child phase of shard-1m: the fresh sharded pass, in its own process so
/// its peak RSS excludes the parent's setup.
int ShardChildMain(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
