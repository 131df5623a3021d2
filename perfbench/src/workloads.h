// The benchmark's workloads and the harness that measures them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Traced runs write their spans here when the run ends ("" = nowhere).
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& workload_names();

/// Run one workload. Per-input rows and failed checks are printed to
/// stdout while it runs; the caller prints the result line.
RunResult run_workload(const RunOptions& options);

}  // namespace bench
