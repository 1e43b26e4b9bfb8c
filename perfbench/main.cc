// perfbench: one executable for the three SECRETA benchmark workloads.
//
//   perfbench --workload compare-rt|serve-mixed|shard-1m --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Normally launched by perfbench/run.py, which builds it first. The last
// stdout line is the JSON result; see harness.h.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compare-rt|serve-mixed|shard-1m --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--shard-child") == 0) {
    return perfbench::ShardChildMain(argc - 2, argv + 2);
  }
  perfbench::Options options;
  std::error_code ec;
  options.self = std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (ec) options.self = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.out_dir.empty()) return Usage("--out-dir is required");
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) return Usage(("cannot create " + options.out_dir).c_str());

  perfbench::Report report;
  perfbench::RecordMachine(options, &report);
  if (options.workload == "compare-rt") {
    perfbench::RunCompareRt(options, &report);
  } else if (options.workload == "serve-mixed") {
    perfbench::RunServeMixed(options, &report);
  } else if (options.workload == "shard-1m") {
    perfbench::RunShard1m(options, &report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  return report.Print(options.trace);
}
