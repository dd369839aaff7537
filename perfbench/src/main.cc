// hipads_perfbench: runs one benchmark workload and prints its metrics.
//
//   hipads_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR [--commit ID]
//
// Human-readable lines (all starting with '#', plus one provenance JSON
// line) come first; the last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (trace 0) or the per-layer metrics (trace 1).
// Exits nonzero without a result line when the workload cannot run.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : (v < 0 ? -1e300 : 0.0);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hipads_perfbench --workload point-zipf|sweep-mixed|"
               "batch-weighted --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("workdir")) {
    return Usage();
  }
  perfbench::RunConfig config;
  config.workload = args["workload"];
  config.seed = std::strtoull(args.count("seed") ? args["seed"].c_str() : "1",
                              nullptr, 10);
  config.seconds = args.count("seconds") ? std::atof(args["seconds"].c_str()) : 10;
  config.trace = args.count("trace") && args["trace"] != "0";
  config.workdir = args["workdir"];
  if (config.seconds <= 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", config.workdir.c_str());
    return 1;
  }

  // Provenance of this result: the source, the build as actually compiled,
  // the machine, and the inputs.
  std::printf(
      "{\"provenance\": {\"commit\": %s, \"build_type\": %s, \"cxx_flags\": "
      "%s, \"compiler\": %s, \"nproc\": %u, \"workload\": %s, \"seed\": "
      "%llu, \"seconds\": %s, \"trace\": %d}}\n",
      JsonString(args.count("commit") ? args["commit"] : "unknown").c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), std::thread::hardware_concurrency(),
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunReport report;
  if (!perfbench::RunWorkload(config, &report)) {
    std::fflush(stdout);
    return 1;
  }
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
