// The SECRETA command-line application: interactive REPL or script runner.
//
//   ./build/examples/example_secreta_cli               # interactive
//   ./build/examples/example_secreta_cli script.txt    # run a command file
//
// Observability flags (may precede or follow the script path):
//   --trace-out <file>     enable the span tracer; on exit write the collected
//                          spans as Chrome trace-event JSON (open the file in
//                          chrome://tracing or https://ui.perfetto.dev)
//   --metrics-out <file>   on exit write the global metrics registry snapshot
//                          (counters, gauges, latency histograms) as JSON
//
// Robustness flags:
//   --faults <spec>        arm the fault injector; spec grammar is
//                          site:action:arg[,site:action:arg...], e.g.
//                          sweep.point:fail:0.05 — see
//                          src/robust/fault_injection.h. The SECRETA_FAULTS
//                          environment variable is a fallback for the flag;
//                          SECRETA_FAULT_SEED (integer) seeds the
//                          probabilistic triggers deterministically.
//   --mem-budget-mb <n>    soft memory budget: the engine sheds optional
//                          work (ARE query workload, distribution copies)
//                          instead of exceeding it, and flags affected
//                          reports as degraded
//
// Performance flags:
//   --kernels <tier>       force the SIMD kernel tier (scalar, avx2, neon)
//                          instead of the CPU-detected best; the
//                          SECRETA_KERNELS environment variable is a fallback
//                          for the flag
//
// Try:
//   generate 2000
//   hierarchies auto
//   workload gen 50
//   mode rt
//   algo rel Cluster
//   algo txn Apriori
//   merger RTmerger
//   param k 5
//   run
//   sweep delta 0.1 0.5 0.2
//   save-output anon.csv

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "export/json_export.h"
#include "frontend/cli.h"
#include "kernels/kernels.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "robust/memory_budget.h"

namespace {

// Writes trace/metrics files (if requested) before exit. Returns the process
// exit code, folding in any export failure.
int Finish(int code, const std::string& trace_out,
           const std::string& metrics_out) {
  if (!trace_out.empty()) {
    secreta::Status status = secreta::Tracer::Get().WriteChromeTrace(trace_out);
    if (!status.ok()) {
      std::cerr << "cannot write trace: " << status.ToString() << "\n";
      if (code == 0) code = 1;
    }
  }
  if (!metrics_out.empty()) {
    std::string json = secreta::MetricsSnapshotToJson(
        secreta::MetricsRegistry::Global().Snapshot());
    secreta::Status status = secreta::WriteJsonFile(json, metrics_out);
    if (!status.ok()) {
      std::cerr << "cannot write metrics: " << status.ToString() << "\n";
      if (code == 0) code = 1;
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string script_path;
  std::string trace_out;
  std::string metrics_out;
  std::string fault_spec;
  std::string kernel_tier;
  size_t mem_budget_mb = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if ((arg == "--trace-out" || arg == "--metrics-out") && i + 1 < argc) {
      (arg == "--trace-out" ? trace_out : metrics_out) = argv[++i];
    } else if (arg.rfind("--faults=", 0) == 0) {
      fault_spec = arg.substr(9);
    } else if (arg == "--faults" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg.rfind("--mem-budget-mb=", 0) == 0) {
      mem_budget_mb = static_cast<size_t>(std::atoll(arg.c_str() + 16));
    } else if (arg == "--mem-budget-mb" && i + 1 < argc) {
      mem_budget_mb = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg.rfind("--kernels=", 0) == 0) {
      kernel_tier = arg.substr(10);
    } else if (arg == "--kernels" && i + 1 < argc) {
      kernel_tier = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--trace-out FILE] [--metrics-out FILE]"
                << " [--faults SPEC] [--mem-budget-mb N]"
                << " [--kernels TIER] [script]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    } else {
      script_path = arg;
    }
  }
  if (!kernel_tier.empty()) {
    secreta::Status status = secreta::kernels::SetTier(kernel_tier);
    if (!status.ok()) {
      std::cerr << "bad --kernels tier: " << status.ToString() << "\n";
      return 1;
    }
  }
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("SECRETA_FAULTS")) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    uint64_t seed = 0;
    if (const char* env = std::getenv("SECRETA_FAULT_SEED")) {
      seed = static_cast<uint64_t>(std::atoll(env));
    }
    secreta::Status status =
        secreta::FaultInjector::Global().Configure(fault_spec, seed);
    if (!status.ok()) {
      std::cerr << "bad fault spec: " << status.ToString() << "\n";
      return 1;
    }
    std::cerr << "fault injection armed: " << fault_spec << "\n";
  }
  if (!trace_out.empty()) secreta::Tracer::Get().Enable();

  secreta::CommandLineInterface cli(&std::cout);
  secreta::MemoryBudget budget(mem_budget_mb * 1024 * 1024);
  if (mem_budget_mb > 0) cli.session().set_memory_budget(&budget);
  if (!script_path.empty()) {
    std::ifstream script(script_path);
    if (!script) {
      std::cerr << "cannot open script: " << script_path << "\n";
      return Finish(1, trace_out, metrics_out);
    }
    size_t failures = cli.RunScript(script, /*stop_on_error=*/true);
    return Finish(failures == 0 ? 0 : 1, trace_out, metrics_out);
  }
  std::cout << "SECRETA CLI — type 'help' for commands, 'quit' to leave\n";
  std::string line;
  while (!cli.done()) {
    std::cout << "secreta> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    secreta::Status status = cli.Execute(line);
    if (!status.ok()) std::cout << "error: " << status.ToString() << "\n";
  }
  return Finish(0, trace_out, metrics_out);
}
