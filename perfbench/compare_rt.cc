// compare-rt: the paper's Comparison mode, one grid cell at a time.
//
// Five RT pairings that together cover all 4 relational and all 5
// transaction algorithms, each with RTmerger at m=2 and k in {5, 10}: 10
// cells. Every cell runs RunAnonymization -> BuildReport (against one
// EvalContext bound at setup) -> MaterializeRun -> AuditAnonymizedDataset.
// The workload is bound by algorithms, kernels and the evaluator; serve,
// data and robust do no work here, so changes to them should not move it.

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/audit.h"
#include "core/context.h"
#include "datagen/synthetic.h"
#include "engine/comparator.h"
#include "engine/evaluator.h"
#include "harness.h"
#include "hierarchy/hierarchy_builder.h"
#include "query/workload_generator.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace secreta;

// Sized so one grid pass takes a few seconds on a 4-core x86 box and a run
// holds several passes; the per-pass cost is dominated by the algorithms.
constexpr size_t kRecords = 2000;
constexpr size_t kQueries = 500;
constexpr int kM = 2;
constexpr int kKs[] = {5, 10};

struct Pairing {
  const char* relational;
  const char* transaction;
  const char* span;  ///< per-pairing algo layer
};
constexpr Pairing kPairings[] = {
    {"Cluster", "Apriori", "algo.cluster-apriori.anonymize"},
    {"Incognito", "COAT", "algo.incognito-coat.anonymize"},
    {"TopDown", "PCTA", "algo.topdown-pcta.anonymize"},
    {"BottomUp", "LRA", "algo.bottomup-lra.anonymize"},
    {"Cluster", "VPA", "algo.cluster-vpa.anonymize"},
};
constexpr size_t kCells = std::size(kPairings) * std::size(kKs);
constexpr double kSetupSeconds = 1.0;  // minimum set-up phase per run

AlgorithmConfig CellConfig(const Pairing& pairing, int k) {
  AlgorithmConfig config;
  config.mode = AnonMode::kRt;
  config.relational_algorithm = pairing.relational;
  config.transaction_algorithm = pairing.transaction;
  config.merger = MergerKind::kRTmerger;
  config.params.k = k;
  config.params.m = kM;
  return config;
}

// Everything a pass reads. Built in place and never moved: the contexts and
// the EvalContext hold pointers into the dataset and hierarchies.
struct Setup {
  Dataset dataset;
  Workload workload;
  std::vector<Hierarchy> columns;
  std::optional<Hierarchy> items;
  std::optional<RelationalContext> relational;
  std::optional<TransactionContext> transaction;
  EngineInputs inputs;
  std::optional<EvalContext> eval;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed, SpanLog* log) {
  auto setup = std::make_unique<Setup>();
  {
    ScopedSpan span(log, "datagen.generate");
    SyntheticOptions gen;
    gen.num_records = kRecords;
    gen.demographic_skew = 0.6;
    gen.seed = DeriveSeed(seed, 1);
    setup->dataset = Need(GenerateRtDataset(gen), "generate dataset");
    WorkloadGenOptions queries;
    queries.num_queries = kQueries;
    queries.seed = DeriveSeed(seed, 2);
    setup->workload =
        Need(GenerateWorkload(setup->dataset, queries), "generate workload");
  }
  {
    ScopedSpan span(log, "hierarchy.build");
    setup->columns = Need(BuildAllColumnHierarchies(setup->dataset),
                          "column hierarchies");
    setup->items = Need(BuildItemHierarchy(setup->dataset), "item hierarchy");
  }
  {
    ScopedSpan span(log, "core.context");
    setup->relational = Need(
        RelationalContext::Create(setup->dataset, setup->columns), "context");
    setup->transaction = Need(
        TransactionContext::Create(setup->dataset, &*setup->items), "context");
  }
  setup->inputs.dataset = &setup->dataset;
  setup->inputs.relational = &*setup->relational;
  setup->inputs.transaction = &*setup->transaction;
  {
    ScopedSpan span(log, "query.bind");
    setup->eval =
        Need(EvalContext::Create(setup->inputs, &setup->workload), "bind");
  }
  return setup;
}

struct CellUtility {
  double gcp = 0;
  double ul = 0;
  double are = 0;
};

bool SameUtility(const CellUtility& a, const CellUtility& b) {
  return SameBits(a.gcp, b.gcp) && SameBits(a.ul, b.ul) &&
         SameBits(a.are, b.are);
}

class Grid {
 public:
  Grid(const Setup& setup, Report* report) : setup_(setup), report_(report) {}

  // One pass over the 10 cells. The first pass's utilities are the
  // reference every later pass (and CompareMethods) must reproduce bit for
  // bit.
  void Pass(SpanLog* log) {
    ScopedSpan grid(log, "engine.compare_grid");
    size_t cell = 0;
    for (const Pairing& pairing : kPairings) {
      for (int k : kKs) {
        Cell(pairing, k, cell++, log);
      }
    }
  }

  // The same grid through the Comparison-mode entry point (thread fan-out
  // over configurations, one bind for the grid).
  double CompareMethodsSeconds() {
    std::vector<AlgorithmConfig> configs;
    for (const Pairing& pairing : kPairings) {
      configs.push_back(CellConfig(pairing, kKs[0]));
    }
    ParamSweep sweep;
    sweep.parameter = "k";
    sweep.start = kKs[0];
    sweep.end = kKs[1];
    sweep.step = kKs[1] - kKs[0];
    Stopwatch watch;
    Result<std::vector<SweepResult>> results =
        CompareMethods(setup_.inputs, configs, sweep, &setup_.workload);
    const double seconds = watch.ElapsedSeconds();
    if (!results.ok()) {
      report_->Fail("CompareMethods: " + results.status().ToString());
      return seconds;
    }
    size_t cell = 0;
    for (const SweepResult& sweep_result : *results) {
      for (const SweepPoint& point : sweep_result.points) {
        const CellUtility got{point.report.gcp, point.report.ul,
                              point.report.are};
        if (cell >= reference_.size() || !SameUtility(got, reference_[cell])) {
          report_->Fail("CompareMethods utility differs from the grid at cell " +
                        std::to_string(cell));
        }
        ++cell;
      }
    }
    return seconds;
  }

  size_t audits_passed() const { return audits_passed_; }
  size_t cells_run() const { return cells_run_; }

 private:
  void Cell(const Pairing& pairing, int k, size_t cell, SpanLog* log) {
    ++cells_run_;
    const AlgorithmConfig config = CellConfig(pairing, k);
    const std::string label = config.Label();
    Result<RunResult> run = Status::Internal("not run");
    {
      ScopedSpan span(log, pairing.span);
      run = RunAnonymization(setup_.inputs, config);
    }
    if (!run.ok()) return Failed(label, run.status());
    Result<EvaluationReport> report = Status::Internal("not run");
    {
      ScopedSpan span(log, "engine.report");
      report = BuildReport(setup_.inputs, std::move(*run), *setup_.eval);
    }
    if (!report.ok()) return Failed(label, report.status());
    Result<Dataset> release = Status::Internal("not run");
    {
      ScopedSpan span(log, "core.materialize");
      release = MaterializeRun(setup_.inputs, report->run);
    }
    if (!release.ok()) return Failed(label, release.status());
    Result<AuditReport> audit = Status::Internal("not run");
    {
      ScopedSpan span(log, "core.audit");
      audit = AuditAnonymizedDataset(*release, k, kM,
                                     /*check_km_per_class=*/true);
    }
    if (!audit.ok()) return Failed(label, audit.status());

    bool correct = true;
    if (audit->k_anonymous && audit->km_anonymous) {
      ++audits_passed_;
    } else {
      report_->Fail(label + ": release fails its (k, k^m) audit: " +
                    audit->details);
      correct = false;
    }
    const CellUtility got{report->gcp, report->ul, report->are};
    if (reference_.size() <= cell) {
      reference_.push_back(got);
    } else if (!SameUtility(got, reference_[cell])) {
      report_->Fail(label + ": GCP/UL/ARE differ from the first pass");
      correct = false;
    }
    if (correct) {
      ++report_->ops.ok;
    } else {
      ++report_->ops.mismatched;
    }
  }

  void Failed(const std::string& label, const Status& status) {
    ++report_->ops.failed;
    report_->Fail(label + ": " + status.ToString());
  }

  const Setup& setup_;
  Report* const report_;
  std::vector<CellUtility> reference_;
  size_t audits_passed_ = 0;
  size_t cells_run_ = 0;
};

}  // namespace

void RunCompareRt(const Options& options, Report* report) {
  report->Env("records", double(kRecords));
  report->Env("queries", double(kQueries));
  report->Env("cells", double(kCells));

  SpanLog log;
  SpanLog* trace = options.trace ? &log : nullptr;
  // A set-up takes tens of milliseconds, so it repeats for a second.
  std::unique_ptr<Setup> setup;
  const std::vector<double> setup_seconds =
      TimeSetups(kSetupSeconds, report, [&] {
        setup.reset();
        setup = BuildSetup(options.seed, trace);
      });

  Grid grid(*setup, report);
  const PassTimes passes = TimePasses(
      options, 0, trace, report, [&](SpanLog* pass_log) { grid.Pass(pass_log); });
  if (!options.trace) return;

  report->Metric("engine.compare_methods_s", grid.CompareMethodsSeconds(), "s");
  const double traced_passes = double(passes.traced.size());
  std::map<std::string, double> self = log.SelfSeconds();
  for (const char* layer : {"datagen.generate", "hierarchy.build",
                            "core.context", "query.bind"}) {
    report->Metric(std::string(layer) + "_s",
                   self[layer] / double(setup_seconds.size()), "s");
  }
  for (const Pairing& pairing : kPairings) {
    report->Metric(std::string(pairing.span) + "_s",
                   self[pairing.span] / traced_passes, "s");
  }
  for (const char* layer : {"engine.report", "core.materialize",
                            "core.audit"}) {
    report->Metric(std::string(layer) + "_s", self[layer] / traced_passes, "s");
  }
  report->Metric("engine.compare_unattributed_s",
                 self["engine.compare_grid"] / traced_passes, "s");
  // The mean traced pass: the layer self times above add up to it.
  double traced_total = 0;
  for (double seconds : log.Durations("engine.compare_grid")) {
    traced_total += seconds;
  }
  report->Metric("engine.compare_traced_s", traced_total / traced_passes, "s");
  report->Metric("engine.cells", double(kCells), "count");
  report->Metric("query.are_queries",
                 double(kCells * setup->eval->workload_size()), "count");
  report->Metric("core.audit_pass_ratio",
                 double(grid.audits_passed()) / double(grid.cells_run()),
                 "ratio");
  if (!log.WriteJsonLines(options.out_dir + "/spans-compare-rt.jsonl")) {
    report->Fail("cannot write the span dump");
  }
}

}  // namespace perfbench
