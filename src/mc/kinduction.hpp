#pragma once

/// \file kinduction.hpp
/// k-induction (Sheeran-Singh-Stålmarck) over the transition system.
///
/// For increasing k the engine maintains two incremental solvers:
///  * Base case (with initial-state constraint): no counterexample of length
///    k exists from the initial states.
///  * Inductive step (no initial-state constraint): any k consecutive frames
///    satisfying the property force the property at frame k+1. Because the
///    step case starts from an *arbitrary* state, it "may encompass
///    unreachable states … and end up in a state where the property fails"
///    (paper §II-A) — that spurious trace is surfaced as `step_cex`, the
///    artefact the GenAI flow analyzes.
///
/// Helper lemmas (proven invariants) are asserted at every frame of both
/// cases, shrinking the over-approximated step state space; this is the
/// mechanism by which the paper's generated helper assertions speed up or
/// unlock proofs. Optional simple-path constraints provide the classical
/// (non-AI) completeness improvement for comparison benches.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mc/exchange.hpp"
#include "mc/result.hpp"
#include "mc/unroller.hpp"

namespace genfv::mc {

struct KInductionOptions {
  std::size_t max_k = 32;
  /// Add pairwise state-distinctness constraints to the step case.
  bool simple_path = false;
  /// Proven invariants assumed at every frame of both cases.
  std::vector<ir::NodeRef> lemmas;
  /// Best-effort SAT conflict cap per run; -1 = unlimited.
  std::int64_t conflict_budget = -1;
  /// Cooperative cancellation: polled at every k and at SAT restart
  /// boundaries; when it reads true the run returns Unknown. See
  /// EngineOptions::stop for the full contract.
  std::shared_ptr<std::atomic<bool>> stop;
  /// Portfolio lemma exchange: polled once per k. Absorbed clauses join the
  /// lemma set on every frame of both cases. nullptr = off.
  std::shared_ptr<LemmaMailbox> exchange;
  std::size_t exchange_slot = 0;
  /// SAT inprocessing toggle (see sat::SolverConfig::inprocess).
  bool sat_inprocess = true;
  /// When non-empty, log DRAT proofs to `<drat_path>_base` / `<drat_path>_step`.
  std::string drat_path;
};

class KInductionEngine {
 public:
  KInductionEngine(const ir::TransitionSystem& ts, KInductionOptions options = {});

  /// Attempt to prove a single width-1 property.
  InductionResult prove(ir::NodeRef property);

  /// Joint (mutual) induction: prove the conjunction of `properties`. Some
  /// helper/target pairs are only inductive together; proving the
  /// conjunction proves every conjunct.
  InductionResult prove_all(const std::vector<ir::NodeRef>& properties);

 private:
  const ir::TransitionSystem& ts_;
  KInductionOptions options_;
};

}  // namespace genfv::mc
