#pragma once

/// \file portfolio.hpp
/// Portfolio scheduling over `mc::Engine`: run BMC, k-induction and IC3/PDR
/// on the same properties and adopt the first conclusive verdict
/// (Proven/Falsified). Soundness makes this race safe — conclusive verdicts
/// cannot disagree, so whichever engine finishes first speaks for all.
///
/// Two scheduling modes (EngineOptions::portfolio_threads):
///  * Threaded: one std::thread per member. NodeManager is not thread-safe,
///    so every member runs over a private `ir::SystemClone`; properties and
///    lemmas are translated into each clone before the threads start, and
///    the winner's counterexample/invariant are translated back after every
///    thread has been joined. The first conclusive member sets the shared
///    stop flag (EngineOptions::stop machinery), which cancels the losers
///    cooperatively at their next poll.
///  * Time-sliced: a deterministic single-threaded round-robin over doubling
///    step budgets (1, 2, 4, …, max_steps) directly on the caller's system.
///    Reproducible run-to-run; intended for CI and debugging.
///
/// Live lemma exchange (EngineOptions::exchange, default on): members share
/// a `mc::LemmaMailbox` carrying clauses in a manager-neutral form. PDR
/// publishes clauses the moment its mutual-induction fixpoint pushes them to
/// F_∞; BMC and k-induction poll each solve-loop iteration and re-create the
/// clauses in their own clone. In the threaded mode this is the codebase's
/// only cross-thread data path besides the stop flag; in the time-sliced
/// mode the mailbox persists across slices, so clauses PDR proved at budget
/// b reach the other members' budget-2b slices — still deterministic.
///
/// The merged `EngineResult` names the winner, sums every member's
/// `EngineStats`, and carries a per-member `EngineBreakdown` (including
/// published/absorbed exchange counters) so reports can show who did what.
/// An inconclusive portfolio (every member Unknown) forwards a k-induction
/// step CEX when one was produced, keeping the GenAI repair loop fed even
/// when no engine concluded.

#include "mc/engine.hpp"

namespace genfv::mc {

class PortfolioEngine final : public Engine {
 public:
  /// `ts` must outlive the engine.
  PortfolioEngine(const ir::TransitionSystem& ts, EngineOptions options);

  EngineKind kind() const noexcept override { return EngineKind::Portfolio; }
  std::string name() const override { return "portfolio"; }

  EngineResult prove_all(const std::vector<ir::NodeRef>& properties) override;

 private:
  EngineResult run_threaded(const std::vector<ir::NodeRef>& properties);
  EngineResult run_time_sliced(const std::vector<ir::NodeRef>& properties);

  const ir::TransitionSystem& ts_;
  EngineOptions options_;
};

}  // namespace genfv::mc
