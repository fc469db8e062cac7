#pragma once

/// \file harness.hpp
/// The loop every workload shares: repeated set-up, timed passes (untraced,
/// or half untraced and half traced on a traced run), and the mapping from
/// what a run measured onto the metric names BENCHMARK.json declares.

#include <functional>

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Time one call of `build`, append its wall time in seconds to `times`,
/// and return what it built. Tearing the result down is not timed.
template <typename Build>
auto timed_setup(std::vector<double>& times, const Build& build) {
  const auto start = Clock::now();
  auto built = build();
  times.push_back(seconds_since(start));
  return built;
}

/// Set-up is timed more than once so that setup_s is a median. The host's
/// speed drifts over tens of seconds, so a set-up shorter than
/// kInterleaveBelow is repeated between passes (for kInterleaveFor after
/// each, results discarded) and its samples span the whole run. A longer one
/// is repeated at once, tearing each build down before the next, so only one
/// is ever alive and the peak resident set is the workload's own. Either way
/// a run ends with at least kSetupRepeats samples.
struct SetupResampler {
  static constexpr int kSetupRepeats = 3;
  static constexpr double kInterleaveBelow = 0.05;
  static constexpr double kInterleaveFor = 0.05;

  std::function<void()> once;  ///< one timed set-up, appended to `*times`
  std::vector<double>* times;
};

/// Build the workload's state with `build`, timing every build into
/// `times`, and return the last one (see SetupResampler).
template <typename Build>
auto run_setups(std::vector<double>& times, const Build& build) {
  auto kept = timed_setup(times, build);
  if (times.back() >= SetupResampler::kInterleaveBelow) {
    while (times.size() < SetupResampler::kSetupRepeats) {
      kept = decltype(kept){};
      kept = timed_setup(times, build);
    }
  }
  return kept;
}

/// Pass wall times of one timed phase.
struct PhaseTimes {
  std::vector<double> untraced;  ///< the whole phase on an untraced run
  std::vector<double> traced;    ///< the second half of a traced run
};

/// Run `pass` until `options.seconds` have elapsed (at least one pass). On a
/// traced run the first half runs untraced (the overhead baseline) and the
/// second half traced: the tracer is switched on, and every pass is folded
/// into its totals once `quiesce` has brought every recording thread to rest.
/// `pass` gets its number within its half (1, 2, ...), so the traced half
/// repeats the inputs of the untraced one. Extra set-ups are taken through
/// `setups` (see SetupResampler).
PhaseTimes run_passes(const Options& options, Tracer* tracer,
                      const std::function<void(std::uint64_t)>& pass,
                      const SetupResampler& setups, const std::function<void()>& quiesce = {});

/// What a workload measured that the end-to-end metrics are made from.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> pass_s;      ///< untraced passes
  std::vector<double> request_ms;  ///< one latency per untraced request (job)
  std::uint64_t decided = 0;       ///< untraced requests answered with the known answer
  std::uint64_t judged = 0;        ///< untraced requests judged
};

/// Set setup_s, pass_s, decided_share, req_per_s, req_p50_ms, req_p99_ms and
/// peak_rss_mb, and print them with their spreads and sample counts.
void set_end_to_end(RunResult& result, const EndToEnd& e2e);

/// Layer quantities a workload measures itself (per pass unless noted).
struct LayerInputs {
  double parse_ms = 0;      ///< per set-up
  double elaborate_ms = 0;  ///< per set-up
  double round_trips = 0;
  double prompt_tokens = 0;
  double completion_tokens = 0;
  double llm_wait_s = 0;
  double candidates = 0;
  double lemmas_proven = 0;
  double sim_falsified = 0;
  double eliminated_vars = 0;
  double hit_ms = 0;  ///< serve medians and shares are over the traced requests
  double near_ms = 0;
  double queue_ms = 0;
  double hit_share = 0;
  double near_share = 0;
  double rejected = 0;
  double seed_yield = 0;
  double cache_entries = 0;  ///< at the end of the run
  double requests_per_pass = 0;

  /// Turn the per-run totals of the counted fields into per-pass values.
  void divide_counts(double passes) {
    for (double* field : {&round_trips, &prompt_tokens, &completion_tokens, &llm_wait_s,
                          &candidates, &lemmas_proven, &sim_falsified, &eliminated_vars,
                          &rejected}) {
      *field = passes > 0 ? *field / passes : 0.0;
    }
  }
};

/// Set every per-layer metric BENCHMARK.json declares (0 where the workload
/// does not exercise the layer), plus the tracing overhead, and print the
/// pass counts they rest on.
void set_layer_metrics(RunResult& result, const Tracer& tracer, const LayerInputs& in,
                       const PhaseTimes& times);

}  // namespace perfbench
