/// engine_matrix: BMC, k-induction and PDR at library defaults (one PDR
/// worker, SAT inprocessing on) over the engine shootout's zoo designs and
/// the tests/corpus files, at the shootout's step budgets. One thread, one
/// engine run at a time; every pass draws a fresh cell order from the seed.

#include "designs/design.hpp"
#include "flow/session.hpp"
#include "harness.hpp"
#include "known_answers.hpp"
#include "mc/engine.hpp"

namespace perfbench {
namespace {

using namespace genfv;

constexpr std::size_t kMaxSteps = 12;

struct Source {
  std::string name;
  std::string file;  ///< "" for a zoo design
  std::size_t max_steps = kMaxSteps;
};

/// The shootout's zoo rows (dual_accumulator at its budget of 6) and the
/// corpus files, named here so a file added to the corpus later does not
/// change this workload.
const std::vector<Source>& sources() {
  static const std::vector<Source> list = {
      {"sync_counters", ""},
      {"sequencer", ""},
      {"token_ring", ""},
      {"updown_pair", ""},
      {"lfsr16", ""},
      {"gray_counter", ""},
      {"fifo_ctrl", ""},
      {"dual_accumulator", "", 6},
      {"counter_wrap", "tests/corpus/counter_wrap.btor2"},
      {"lfsr16_rt", "tests/corpus/lfsr16_rt.aig"},
      {"rot_barrel", "tests/corpus/rot_barrel.btor2"},
      {"rotate_onehot", "tests/corpus/rotate_onehot.btor2"},
      {"sdiv_props", "tests/corpus/sdiv_props.btor2"},
      {"toggle_bad", "tests/corpus/toggle_bad.btor2"},
      {"toggle_cex", "tests/corpus/toggle_cex.aag"},
      {"token_ring_rt", "tests/corpus/token_ring_rt.aag"},
      {"updown_pair_rt", "tests/corpus/updown_pair_rt.aag"},
  };
  return list;
}

struct Engine {
  const char* label;
  mc::EngineKind kind;
};
constexpr Engine kEngines[] = {
    {"bmc", mc::EngineKind::Bmc},
    {"k-induction", mc::EngineKind::KInduction},
    {"pdr", mc::EngineKind::Pdr},
};

}  // namespace

RunResult run_engine_matrix(const Options& options, Tracer* tracer) {
  RunResult result;
  const std::size_t engine_count = std::size(kEngines);

  // Set-up: parse the corpus files and elaborate the zoo designs.
  EndToEnd e2e;
  std::vector<double> parse_ms;
  std::vector<double> elaborate_ms;
  const auto build = [&] {
    std::vector<flow::VerificationTask> built;
    double parse = 0.0;
    double elaborate = 0.0;
    for (const Source& source : sources()) {
      const auto start = Clock::now();
      if (source.file.empty()) {
        built.push_back(designs::make_task(source.name));
        elaborate += seconds_since(start) * 1e3;
      } else {
        built.push_back(flow::VerificationTask::from_file(options.root + "/" + source.file));
        parse += seconds_since(start) * 1e3;
      }
    }
    parse_ms.push_back(parse);
    elaborate_ms.push_back(elaborate);
    return built;
  };
  const auto tasks = run_setups(e2e.setup_s, build);
  const SetupResampler setups{[&] { timed_setup(e2e.setup_s, build); }, &e2e.setup_s};
  LayerInputs layer;
  std::map<std::string, JobRow> rows;
  std::vector<std::size_t> cells(sources().size() * engine_count);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;

  const auto pass = [&](std::uint64_t pass_index) {
    Rng order(mix_seed(options.seed, pass_index));
    order.shuffle(cells);
    const bool traced = tracer != nullptr && tracer->recording();
    for (const std::size_t cell : cells) {
      const Source& source = sources()[cell / engine_count];
      const Engine& which = kEngines[cell % engine_count];
      const flow::VerificationTask& task = tasks[cell / engine_count];
      JobRow& row = rows[source.name + "/" + which.label];
      row.design = source.name;
      row.kind = which.label;
      ++result.attempted;

      const auto start = Clock::now();
      mc::EngineResult r;
      try {
        Tracer::Span span(tracer, "mc", which.label);
        mc::EngineOptions engine_options;
        engine_options.max_steps = source.max_steps;
        r = mc::make_engine(which.kind, task.ts, engine_options)->prove_all(task.target_exprs());
      } catch (const std::exception& e) {
        result.fail(source.name + "/" + which.label + " threw: " + e.what());
        row.add("threw", seconds_since(start) * 1e3, 0, false, true);
        continue;
      }
      const double ms = seconds_since(start) * 1e3;

      const Judgement j = judge(source.name, r.verdict, r.cex, task.ts, task.target_exprs());
      if (j.outcome == Outcome::Wrong) {
        result.fail(source.name + "/" + which.label + ": " + j.why);
      }
      const std::string verdict = mc::to_string(r.verdict);
      const std::string pin = pinned_verdict(source.name, which.label);
      if (!pin.empty() && pin != verdict) row.note = "pinned " + pin;
      row.add(verdict, ms, r.stats.conflicts, j.outcome == Outcome::Decided,
              j.outcome == Outcome::Wrong);

      if (traced) {
        layer.eliminated_vars += static_cast<double>(r.stats.eliminated_vars);
      } else {
        e2e.request_ms.push_back(ms);
        e2e.decided += j.outcome == Outcome::Decided ? 1 : 0;
        ++e2e.judged;
      }
    }
  };

  const PhaseTimes times = run_passes(options, tracer, pass, setups);
  print_rows("engine_matrix cells (design / engine)", rows);
  if (tracer == nullptr) {
    e2e.pass_s = times.untraced;
    set_end_to_end(result, e2e);
  } else {
    layer.divide_counts(static_cast<double>(times.traced.size()));
    layer.parse_ms = median(parse_ms);
    layer.elaborate_ms = median(elaborate_ms);
    layer.requests_per_pass = static_cast<double>(cells.size());
    set_layer_metrics(result, *tracer, layer, times);
  }
  return result;
}

}  // namespace perfbench
