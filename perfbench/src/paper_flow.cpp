/// paper_flow: the paper's loop. On every zoo design, the Fig. 1 helper
/// generation flow and then the Fig. 2 counterexample-guided repair flow,
/// against a simulated gpt-4o. One caller, one thread, one job at a time
/// (a closed loop). Every pass draws a fresh job order and fresh model seeds
/// from the workload seed.

#include <cstdio>
#include <memory>

#include "designs/design.hpp"
#include "flow/cex_repair_flow.hpp"
#include "flow/helper_gen_flow.hpp"
#include "flow/session.hpp"
#include "genai/simulated_llm.hpp"
#include "harness.hpp"
#include "known_answers.hpp"

namespace perfbench {
namespace {

using namespace genfv;

/// Timing decorator around the model: counts round trips, tokens and the
/// modelled latency, and records one genai span per completion.
class TimedLlm : public genai::LlmClient {
 public:
  TimedLlm(genai::LlmClient& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  genai::Completion complete(const genai::Prompt& prompt) override {
    Tracer::Span span(tracer_, "genai", "complete");
    genai::Completion completion = inner_.complete(prompt);
    ++round_trips;
    prompt_tokens += completion.prompt_tokens;
    completion_tokens += completion.completion_tokens;
    wait_s += completion.latency_seconds;
    return completion;
  }
  std::string model_name() const override { return inner_.model_name(); }

  std::uint64_t round_trips = 0;
  std::uint64_t prompt_tokens = 0;
  std::uint64_t completion_tokens = 0;
  double wait_s = 0.0;

 private:
  genai::LlmClient& inner_;
  Tracer* tracer_;
};

constexpr const char* kFlows[] = {"helper", "cex_repair"};

/// SAT conflicts one proof may spend (best effort, checked between solver
/// calls). Unbounded, about one model seed in ten makes a dual_accumulator
/// k-induction proof run for minutes (one sampled helper job: 1.5M
/// conflicts, 173 s, still unknown at k = 8); capped, that proof ends
/// Unknown within about a second and the job counts as undecided. Every
/// proof a job needs to succeed stays far below the cap.
constexpr std::int64_t kProofConflictBudget = 20000;

}  // namespace

RunResult run_paper_flow(const Options& options, Tracer* tracer) {
  RunResult result;
  const auto& zoo = designs::all_designs();
  const genai::ModelProfile& model = genai::profile_by_name("gpt-4o");
  flow::FlowOptions flow_options;
  flow_options.engine.max_k = 8;
  flow_options.engine.conflict_budget = kProofConflictBudget;

  // Set-up: elaborate every design into a resident session; each job rolls
  // its session back to the pristine system before it runs.
  EndToEnd e2e;
  std::vector<double> elaborate_ms;
  const auto build = [&] {
    std::vector<std::unique_ptr<flow::EngineSession>> built;
    const auto start = Clock::now();
    for (const auto& info : zoo) {
      built.push_back(std::make_unique<flow::EngineSession>(designs::make_task(info)));
    }
    elaborate_ms.push_back(seconds_since(start) * 1e3);
    return built;
  };
  const auto sessions = run_setups(e2e.setup_s, build);
  const SetupResampler setups{[&] { timed_setup(e2e.setup_s, build); }, &e2e.setup_s};
  LayerInputs layer;
  std::map<std::string, JobRow> rows;
  std::vector<std::size_t> jobs(zoo.size() * 2);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i] = i;
  std::vector<double> wait_s;  ///< modelled LLM wait of each untraced pass

  const auto pass = [&](std::uint64_t pass_index) {
    double pass_wait_s = 0.0;
    Rng order(mix_seed(options.seed, pass_index));
    order.shuffle(jobs);
    const bool traced = tracer != nullptr && tracer->recording();
    for (const std::size_t job : jobs) {
      const auto& info = zoo[job / 2];
      const char* flow_name = kFlows[job % 2];
      flow::EngineSession& session = *sessions[job / 2];
      flow::VerificationTask& task = session.task();
      genai::SimulatedLlm llm(model, mix_seed(options.seed, pass_index * 1000 + job));
      TimedLlm timed(llm, tracer);
      JobRow& row = rows[info.name + "/" + flow_name];
      row.design = info.name;
      row.kind = flow_name;
      ++result.attempted;

      const auto start = Clock::now();
      flow::FlowReport report;
      try {
        session.reset();
        Tracer::Span span(tracer, "flow", flow_name);
        if (job % 2 == 0) {
          report = flow::HelperGenFlow(timed, flow_options).run(task);
        } else {
          report = flow::CexRepairFlow(timed, flow_options).run(task);
        }
      } catch (const std::exception& e) {
        result.fail(info.name + "/" + flow_name + " threw: " + e.what());
        row.add("threw", seconds_since(start) * 1e3, 0, false, true);
        continue;
      }
      const double ms = seconds_since(start) * 1e3;

      // Every target must be judged; the job is decided when all are.
      bool decided = report.targets.size() == task.target_indices.size();
      bool wrong = false;
      std::uint64_t conflicts = 0;
      std::string verdict = decided ? "proven" : "missing-target";
      for (std::size_t t = 0; t < report.targets.size(); ++t) {
        const mc::InductionResult& r = report.targets[t].result;
        const Judgement j = judge(info.name, r.verdict, r.base_cex, task.ts,
                                  {task.ts.property(task.target_indices[t]).expr});
        if (j.outcome != Outcome::Decided) {
          decided = false;
          verdict = mc::to_string(r.verdict);
        }
        if (j.outcome == Outcome::Wrong) {
          wrong = true;
          result.fail(info.name + "/" + flow_name + " target " + report.targets[t].name +
                      ": " + j.why);
        }
        conflicts += r.stats.conflicts;
        if (traced) layer.eliminated_vars += static_cast<double>(r.stats.eliminated_vars);
      }
      row.add(verdict, ms, conflicts, decided, wrong);

      if (traced) {
        layer.round_trips += static_cast<double>(timed.round_trips);
        layer.prompt_tokens += static_cast<double>(timed.prompt_tokens);
        layer.completion_tokens += static_cast<double>(timed.completion_tokens);
        layer.llm_wait_s += timed.wait_s;
        layer.candidates += static_cast<double>(report.candidates_total());
        layer.lemmas_proven +=
            static_cast<double>(report.candidates_with(flow::CandidateStatus::Proven));
        layer.sim_falsified +=
            static_cast<double>(report.candidates_with(flow::CandidateStatus::SimFalsified));
      } else {
        e2e.request_ms.push_back(ms);
        e2e.decided += decided ? 1 : 0;
        ++e2e.judged;
        pass_wait_s += timed.wait_s;
      }
    }
    if (!traced) wait_s.push_back(pass_wait_s);
  };

  const PhaseTimes times = run_passes(options, tracer, pass, setups);
  print_rows("paper_flow jobs (design / flow)", rows);
  if (tracer == nullptr) {
    e2e.pass_s = times.untraced;
    set_end_to_end(result, e2e);
    std::printf("llm_wait_s: %.4f s per pass (modelled model latency, not host time; "
                "median of %zu passes)\n",
                median(wait_s), wait_s.size());
  } else {
    layer.divide_counts(static_cast<double>(times.traced.size()));
    layer.elaborate_ms = median(elaborate_ms);
    layer.requests_per_pass = static_cast<double>(jobs.size());
    set_layer_metrics(result, *tracer, layer, times);
  }
  return result;
}

}  // namespace perfbench
