#pragma once

/// \file certify.hpp
/// Independent certification of an inductive invariant: the checker half of
/// "the generator proposes, an independent checker decides". Whoever
/// produced the clauses — a PDR run, a persisted proof cache, an LLM — the
/// check re-derives their inductiveness with fresh SAT solvers over the
/// *current* system and trusts nothing it did not prove itself.
///
/// The obligations are those of one-step induction over targets ∧ invariant,
/// discharged goal by goal the way PDR checks its own frames:
///  * **Initiation** — one query on a solver pinned to the initial states:
///    no initial state violates any goal.
///  * **Consecution** — one incremental step solver with every goal asserted
///    at frame 0; for each goal g, `solve({¬g@1})` must be UNSAT.
/// A monolithic step query would instead hand CDCL the negated conjunction
/// at frame 1, a disjunction with one branch per goal that it refutes branch
/// by branch under a single, ever-growing search; per-goal queries refute
/// one small cone each and keep the learnt clauses of the earlier ones.

#include <vector>

#include "ir/transition_system.hpp"
#include "mc/engine.hpp"

namespace genfv::mc {

/// Check that every target and every invariant clause (jointly: the goals)
/// holds initially and is preserved by one transition from any state where
/// all goals hold. Since the goals include the targets, a pass proves the
/// targets in every reachable state.
///
/// Returns Proven (depth 1) when every query is UNSAT. An initial state that
/// violates a goal gives Falsified with a one-frame `cex`; a failed
/// consecution query gives Unknown with a two-frame `step_cex`; a stop flag
/// or an exhausted budget gives Unknown with no trace. `stats` sums both
/// solvers.
///
/// Reads from `options` only: `stop` (polled before every query and handed
/// to both solvers), `conflict_budget` (a cap on the whole run: each query
/// gets what the earlier ones left), `sat_inprocess` and `drat_path`
/// (`<path>_base` / `<path>_step`). Lemmas and candidates are not assumed —
/// a checker takes nothing on faith; pass lemmas in `invariant` to have them
/// checked along with it.
EngineResult certify_invariant(const ir::TransitionSystem& ts,
                               const std::vector<ir::NodeRef>& targets,
                               const std::vector<ir::NodeRef>& invariant,
                               const EngineOptions& options);

}  // namespace genfv::mc
