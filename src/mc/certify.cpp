#include "mc/certify.hpp"

#include <atomic>
#include <memory>

#include "mc/unroller.hpp"
#include "sat/backend.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"

namespace genfv::mc {

EngineResult certify_invariant(const ir::TransitionSystem& ts,
                               const std::vector<ir::NodeRef>& targets,
                               const std::vector<ir::NodeRef>& invariant,
                               const EngineOptions& options) {
  GENFV_TRACE_SPAN("mc", "certify_invariant");
  util::Stopwatch watch;
  EngineResult result;
  result.depth = 1;

  std::vector<ir::NodeRef> goals = targets;
  goals.insert(goals.end(), invariant.begin(), invariant.end());

  // The conflict budget caps the whole run, not each solver: solve() below
  // hands every query what is left of it.
  auto make_solver = [&](const char* drat_suffix) {
    return sat::make_backend(
        {.stop = options.stop.get(),
         .inprocess = options.sat_inprocess,
         .drat_path = options.drat_path.empty() ? "" : options.drat_path + drat_suffix});
  };
  const std::unique_ptr<sat::Backend> base_solver = make_solver("_base");
  const std::unique_ptr<sat::Backend> step_solver = make_solver("_step");

  auto finish = [&](Verdict verdict) {
    result.verdict = verdict;
    result.stats.absorb(base_solver->stats());
    result.stats.absorb(step_solver->stats());
    result.stats.seconds = watch.seconds();
    return result;
  };

  // Every query polls the stop flag first (a tiny query may never reach the
  // restart boundary where the solver polls it) and runs on whatever is
  // left of the whole run's conflict budget.
  auto solve = [&](sat::Backend& solver, const std::vector<sat::Lit>& assumptions) {
    if (options.stop != nullptr && options.stop->load(std::memory_order_relaxed)) {
      return sat::LBool::Undef;
    }
    if (options.conflict_budget >= 0) {
      const std::uint64_t budget = static_cast<std::uint64_t>(options.conflict_budget);
      const std::uint64_t spent =
          base_solver->stats().conflicts + step_solver->stats().conflicts;
      if (spent >= budget) return sat::LBool::Undef;
      solver.set_conflict_budget(static_cast<std::int64_t>(budget - spent));
    }
    return solver.solve(assumptions);
  };

  // ---- Initiation: no initial state violates any goal.
  Unroller base(ts, *base_solver);
  base.assert_init();
  std::vector<sat::Lit> violated;
  violated.reserve(goals.size());
  for (const ir::NodeRef goal : goals) violated.push_back(~base.lit_at(goal, 0));
  base_solver->add_clause(std::move(violated));
  const sat::LBool base_answer = solve(*base_solver, {});
  if (base_answer == sat::LBool::True) {
    result.cex = base.extract_trace(1);
    return finish(Verdict::Falsified);
  }
  if (base_answer == sat::LBool::Undef) return finish(Verdict::Unknown);

  // ---- Consecution: all goals at frame 0 force each goal at frame 1.
  Unroller step(ts, *step_solver);  // no init: arbitrary start state
  step.extend_to(1);
  for (const ir::NodeRef goal : goals) step.assert_at(goal, 0);
  for (const ir::NodeRef goal : goals) {
    const sat::Lit bad = ~step.lit_at(goal, 1);
    const sat::LBool answer = solve(*step_solver, {bad});
    if (answer == sat::LBool::True) {
      result.step_cex = step.extract_trace(2);
      return finish(Verdict::Unknown);
    }
    if (answer == sat::LBool::Undef) return finish(Verdict::Unknown);
  }
  return finish(Verdict::Proven);
}

}  // namespace genfv::mc
