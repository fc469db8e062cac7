#include "harness.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <numeric>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void print_rows(const std::string& title, const std::map<std::string, JobRow>& rows) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-18s %-12s %-10s %7s %7s %10s %10s %12s  %s\n", "design", "job", "verdict",
              "runs", "decided", "median_ms", "p90_ms", "conflicts", "note");
  for (const auto& [key, row] : rows) {
    std::printf("  %-18s %-12s %-10s %7llu %7llu %10.3f %10.3f %12.0f  %s%s\n",
                row.design.c_str(), row.kind.c_str(), row.verdict.c_str(),
                static_cast<unsigned long long>(row.runs),
                static_cast<unsigned long long>(row.decided), median(row.ms),
                quantile(row.ms, 0.9),
                row.runs == 0 ? 0.0
                              : static_cast<double>(row.conflicts) / static_cast<double>(row.runs),
                row.note.c_str(), row.wrong > 0 ? " WRONG" : "");
  }
}

PhaseTimes run_passes(const Options& options, Tracer* tracer,
                      const std::function<void(std::uint64_t)>& pass,
                      const SetupResampler& setups, const std::function<void()>& quiesce) {
  const bool interleave = !setups.times->empty() &&
                          setups.times->front() < SetupResampler::kInterleaveBelow;
  PhaseTimes times;
  const auto phase = [&](double seconds, std::vector<double>& out, bool traced) {
    if (traced) tracer->start();
    const auto start = Clock::now();
    do {
      const auto pass_start = Clock::now();
      pass(out.size() + 1);
      out.push_back(seconds_since(pass_start));
      if (traced) {
        if (quiesce) quiesce();
        tracer->fold();
      } else if (interleave) {
        const auto gap = Clock::now();
        do setups.once();
        while (seconds_since(gap) < SetupResampler::kInterleaveFor);
      }
    } while (seconds_since(start) < seconds);
    if (traced) tracer->stop();
  };
  if (tracer == nullptr) {
    phase(options.seconds, times.untraced, false);
  } else {
    phase(options.seconds / 2, times.untraced, false);
    phase(options.seconds / 2, times.traced, true);
  }
  while (setups.times->size() < SetupResampler::kSetupRepeats) setups.once();
  return times;
}

void set_end_to_end(RunResult& result, const EndToEnd& e2e) {
  const double pass_total = std::accumulate(e2e.pass_s.begin(), e2e.pass_s.end(), 0.0);
  const double requests = static_cast<double>(e2e.request_ms.size());
  result.set("setup_s", median(e2e.setup_s), "s");
  result.set("pass_s", median(e2e.pass_s), "s");
  result.set("decided_share",
             e2e.judged == 0 ? 0.0
                             : static_cast<double>(e2e.decided) / static_cast<double>(e2e.judged),
             "ratio");
  result.set("req_per_s", pass_total > 0 ? requests / pass_total : 0.0, "1/s");
  result.set("req_p50_ms", quantile(e2e.request_ms, 0.50), "ms");
  result.set("req_p99_ms", quantile(e2e.request_ms, 0.99), "ms");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::printf("setup: %d set-ups, median %.4f s (IQR/median %.3f)\n",
              static_cast<int>(e2e.setup_s.size()), median(e2e.setup_s),
              relative_iqr(e2e.setup_s));
  std::printf("passes: %zu, pass_s median %.4f s, IQR/median %.3f\n", e2e.pass_s.size(),
              median(e2e.pass_s), relative_iqr(e2e.pass_s));
  std::printf("requests: %zu latency samples, %.1f beyond p99; decided %llu of %llu\n",
              e2e.request_ms.size(), requests * 0.01,
              static_cast<unsigned long long>(e2e.decided),
              static_cast<unsigned long long>(e2e.judged));
}

void set_layer_metrics(RunResult& result, const Tracer& tracer, const LayerInputs& in,
                       const PhaseTimes& times) {
  const LayerTotals& t = tracer.totals();
  const auto span_ms = [&](const std::string& key) { return t.per_pass(t.span_ns, key, 1e-6); };
  const auto reg = [&](const std::string& key, double scale = 1.0) {
    return t.per_pass(t.registry, key, scale);
  };
  const auto self_ms = [&](const std::string& layer) {
    return t.per_pass(t.self_ns, layer, 1e-6);
  };
  const auto sampled_median = [&](const std::string& key) {
    const auto it = t.span_ms.find(key);
    return it == t.span_ms.end() ? 0.0 : median(it->second);
  };

  result.set("frontend.parse_ms", in.parse_ms, "ms");
  result.set("hdl.elaborate_ms", in.elaborate_ms, "ms");

  result.set("genai.complete_ms", span_ms("genai/complete"), "ms");
  result.set("genai.round_trips", in.round_trips, "count");
  result.set("genai.prompt_tokens", in.prompt_tokens, "count");
  result.set("genai.completion_tokens", in.completion_tokens, "count");
  result.set("genai.llm_wait_s", in.llm_wait_s, "s");

  result.set("flow.candidates", in.candidates, "count");
  result.set("flow.lemmas_proven", in.lemmas_proven, "count");
  result.set("flow.lemma_yield", in.candidates > 0 ? in.lemmas_proven / in.candidates : 0.0,
             "ratio");
  result.set("flow.sim_falsified", in.sim_falsified, "count");
  result.set("flow.screen_ms", reg("flow.screen_ns", 1e-6), "ms");
  result.set("flow.candidate_prove_ms", reg("flow.prove_ns", 1e-6), "ms");
  result.set("flow.target_prove_ms", span_ms("flow/prove_target") + span_ms("flow/prove_targets"),
             "ms");
  result.set("flow.self_ms", self_ms("flow"), "ms");

  const double bmc_ms = t.per_pass(t.engine_ns, "bmc", 1e-6);
  const double kind_ms = t.per_pass(t.engine_ns, "kind", 1e-6);
  const double pdr_ms = t.per_pass(t.engine_ns, "pdr", 1e-6);
  result.set("mc.bmc_ms", bmc_ms, "ms");
  result.set("mc.kind_ms", kind_ms, "ms");
  result.set("mc.pdr_ms", pdr_ms, "ms");
  result.set("mc.pdr.blocking_ms", reg("pdr.blocking_ns", 1e-6), "ms");
  result.set("mc.pdr.propagate_ms", reg("pdr.propagate_ns", 1e-6), "ms");
  result.set("mc.pdr.may_proof_ms", reg("pdr.may_proof_ns", 1e-6), "ms");
  result.set("mc.pdr.obligations", reg("pdr.obligations_created"), "count");
  result.set("mc.self_ms", self_ms("mc"), "ms");

  const double solve_ms = reg("sat.solve_ns", 1e-6);
  const double engine_ms = bmc_ms + kind_ms + pdr_ms;
  result.set("sat.solves", reg("sat.solves"), "count");
  result.set("sat.conflicts", reg("sat.conflicts"), "count");
  result.set("sat.propagations", reg("sat.propagations"), "count");
  result.set("sat.solve_ms", solve_ms, "ms");
  result.set("sat.solve_share", engine_ms > 0 ? solve_ms / engine_ms : 0.0, "ratio");
  result.set("sat.inprocessings", t.per_pass(t.span_count, "sat/inprocess"), "count");
  result.set("sat.eliminated_vars", in.eliminated_vars, "count");
  result.set("sat.self_ms", self_ms("sat"), "ms");

  result.set("serve.hit_ms", in.hit_ms, "ms");
  result.set("serve.near_ms", in.near_ms, "ms");
  result.set("serve.queue_ms", in.queue_ms, "ms");
  result.set("serve.recertify_ms", sampled_median("serve/recertify"), "ms");
  result.set("serve.cache_lookup_ms", sampled_median("serve/cache_lookup"), "ms");
  result.set("serve.hit_share", in.hit_share, "ratio");
  result.set("serve.near_share", in.near_share, "ratio");
  result.set("serve.rejected", in.rejected, "count");
  result.set("serve.sessions_reused", reg("serve.sessions.reused"), "count");
  result.set("serve.sessions_created", reg("serve.sessions.created"), "count");
  result.set("serve.seed_yield", in.seed_yield, "ratio");
  result.set("serve.cache_entries", in.cache_entries, "count");
  result.set("serve.self_ms", self_ms("serve"), "ms");

  const double untraced_pass = median(times.untraced);
  const double traced_pass = median(times.traced);
  result.set("trace.untraced_pass_s", untraced_pass, "s");
  result.set("trace.traced_pass_s", traced_pass, "s");
  result.set("trace.untraced_req_per_s",
             untraced_pass > 0 ? in.requests_per_pass / untraced_pass : 0.0, "1/s");
  result.set("trace.traced_req_per_s", traced_pass > 0 ? in.requests_per_pass / traced_pass : 0.0,
             "1/s");
  result.set("trace.overhead_share", untraced_pass > 0 ? traced_pass / untraced_pass - 1.0 : 0.0,
             "ratio");
  result.set("trace.dropped_events", static_cast<double>(t.dropped_events), "count");

  std::printf("traced passes: %zu (untraced baseline passes: %zu); per-layer figures are "
              "per pass unless named a share, a median or a set-up time\n",
              t.passes, times.untraced.size());
}

}  // namespace perfbench
