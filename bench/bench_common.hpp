#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the experiment benches: deterministic seeds, default
/// flow options, and a tiny helper to run google-benchmark registrations
/// after the experiment tables have been printed.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "genai/simulated_llm.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace genfv::bench {

/// Every bench prints its seed so results are reproducible by construction.
inline constexpr std::uint64_t kSeed = 42;

inline flow::FlowOptions default_flow_options() {
  flow::FlowOptions options;
  options.engine.max_k = 8;
  return options;
}

inline void print_header(const char* experiment, const char* paper_source,
                         const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s  (reproduces: %s)\n", experiment, paper_source);
  std::printf("%s\n", claim);
  std::printf("seed = %llu\n", static_cast<unsigned long long>(kSeed));
  std::printf("==============================================================\n");
}

/// Print the experiment tables, then hand over to google-benchmark for the
/// micro-timing registrations (if any).
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// Consume a `--flag <path>` / `--flag=<path>` pair from argv (so the
/// remaining arguments can be handed to google-benchmark untouched).
/// Returns the value, or "" when the flag is absent.
inline std::string take_flag_value(int* argc, char** argv, const std::string& flag) {
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < *argc) {
      value = argv[++i];
      continue;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
      value = arg.substr(flag.size() + 1);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return value;
}

}  // namespace genfv::bench
