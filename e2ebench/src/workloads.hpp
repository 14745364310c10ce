// The benchmark's four workloads and the metrics each run reports.
// e2ebench/README.md explains why each workload exists and which layer
// each metric belongs to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gfre::e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measurement window
  bool trace = false;   ///< false: end-to-end metrics; true: per-layer
  bool tiny = false;    ///< self-check scale: small m, few jobs
  std::string work_dir; ///< scratch space, relative to the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed beside the value, e.g. the sample count
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< correctness failures (first few)
  std::vector<Metric> metrics;
  std::string trace_path;  ///< Chrome trace-event file of a traced run
};

const std::vector<std::string>& workload_names();

/// Sets up, measures and checks one workload.  Throws on set-up failures
/// (unwritable work dir, fleet that cannot start); wrong answers land in
/// RunResult::failed/problems instead.
RunResult run_workload(const RunConfig& config);

}  // namespace gfre::e2e
