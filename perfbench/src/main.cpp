/// genfv_perfbench — one benchmark run of one workload.
///
///   genfv_perfbench --workload <paper_flow|engine_matrix|serve_resubmit>
///                   [--seed N] [--seconds S] [--trace 0|1]
///                   [--root DIR] [--trace-out FILE]
///
/// Prints one row per job class, the metrics by name and unit, and as its
/// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
/// (--trace 1) reports the per-layer metrics and the tracing overhead, and
/// with --trace-out writes the last traced pass as a Chrome trace. Exits 1
/// when any verdict contradicts the known answer or any job throws, 2 on a
/// usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "tracer.hpp"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr, "genfv_perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: genfv_perfbench --workload <paper_flow|engine_matrix|serve_resubmit> "
               "[--seed N] [--seconds S] [--trace 0|1] [--root DIR] [--trace-out FILE]\n"
               "default seed %llu; held-out seed %llu\n",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  return 2;
}

void print_result(const RunResult& result) {
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-28s %.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& failure : result.failures) std::printf("FAILED: %s\n", failure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.seed = kDefaultSeed;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--root") {
      options.root = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto run = options.workload == "paper_flow"       ? run_paper_flow
                   : options.workload == "engine_matrix"  ? run_engine_matrix
                   : options.workload == "serve_resubmit" ? run_serve_resubmit
                                                          : nullptr;
  if (run == nullptr) return usage("unknown workload");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  try {
    Tracer tracer;
    const RunResult result = run(options, options.trace ? &tracer : nullptr);
    if (options.trace && !trace_out.empty() && !tracer.write_last_pass(trace_out)) {
      std::fprintf(stderr, "genfv_perfbench: cannot write %s\n", trace_out.c_str());
    }
    print_result(result);
    std::fflush(stdout);
    return result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "genfv_perfbench: %s\n", e.what());
    return 2;
  }
}
