// perfbench: the repository benchmark's load generator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--smoke]
//
// Prints every metric by name and unit, then one JSON result line. Exits
// 0 when every oracle passed, 1 when an answer was wrong, 2 on bad
// arguments or when the workload could not run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--smoke]\n"
               "workloads:",
               why);
  for (const std::string& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      cfg.workload = argv[++i];
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--data-dir") {
      cfg.data_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.workload.empty()) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  return perfbench::run_workload(cfg);
}
