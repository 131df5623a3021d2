// polyfuse benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// Prints per-input rows, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// End-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// See perfbench/README.md for the workloads and the metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support/strings.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\nworkloads:",
               error.c_str());
  for (const std::string& w : bench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

long long int_arg(const std::string& flag, const char* text, long long min) {
  const auto v = pf::parse_i64(text);
  if (!v || *v < min)
    usage(flag + " expects an integer >= " + std::to_string(min));
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunOptions o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = static_cast<std::uint64_t>(int_arg(flag, value, 0));
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(int_arg(flag, value, 1));
      have_seconds = true;
    } else if (flag == "--trace") {
      const long long t = int_arg(flag, value, 0);
      if (t > 1) usage("--trace expects 0 or 1");
      o.trace = t == 1;
      have_trace = true;
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  bench::RunResult r;
  try {
    r = bench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", r.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + r.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
