// The benchmark's three workloads. Each builds its inputs from the seed,
// runs for about `seconds`, checks every answer, and fills a RunReport:
// with trace off the end-to-end metrics, with trace on the per-layer ones.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // working directory for graph and sketch files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, refusals and wrong answers
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Marks the run incorrect and says why on stderr.
  void Fail(const std::string& why);
};

/// Runs `config.workload`; false when the name is unknown or the workload
/// could not run at all (the reason is on stderr).
bool RunWorkload(const RunConfig& config, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
