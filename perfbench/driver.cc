// The trial benchmark's driver: one process, one closed-loop client.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a build stamp line, the per-layer table (traced runs), and as the
// last stdout line the result object of perfbench::ResultJson. Per-trial
// progress and failures go to stderr. Refuses debug and sanitizer builds.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:";
  for (const scoop::perfbench::Workload& w : scoop::perfbench::Workloads()) {
    std::cerr << " " << w.name;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scoop::perfbench;
  std::string workload_name;
  uint64_t seed = 0;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds >= 0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) return Usage("unknown workload '" + workload_name + "'");

  std::cout << "stamp " << BuildStampJson() << std::endl;
  std::string unfit = UnfitBuildReason();
  if (!unfit.empty()) {
    std::cerr << "perfbench_driver: refusing to time this build: " << unfit << "\n";
    return 3;
  }

  RunReport report = RunWorkload(*workload, seed, options);
  for (const std::string& line : report.table) std::cout << line << "\n";
  std::cout << ResultJson(report, options.trace ? LayerMetrics() : EndToEndMetrics())
            << std::endl;
  return 0;
}
