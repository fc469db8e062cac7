#pragma once

/// \file propagate.hpp
/// Forward clause propagation and the F_∞ graduation fixpoint.
///
/// Propagation pushes every blocked clause that remains inductive at its
/// level one level forward; clauses that reach the frontier become
/// candidates for F_∞, where a mutual-induction fixpoint certifies the
/// inductive subset invariant (and publishes each survivor to the lemma
/// exchange). Both passes operate on the `FrameDb`.

#include "mc/pdr/context.hpp"
#include "mc/pdr/frame_db.hpp"

namespace genfv::mc::pdr {

enum class PropagateOutcome {
  Done,    ///< every level processed
  Budget,  ///< conflict budget or stop flag interrupted the pass
};

/// Propagation over levels 1..frontier-1.
PropagateOutcome propagate_all(QueryContext& ctx, FrameDb& db);

/// The may-proof pass (PdrOptions::seed_candidates; no-op otherwise): try to
/// graduate candidate ("may") clauses into ordinary frame clauses.
///  1. Initiation filter: a candidate whose cube contains an initial state
///     is refuted outright and retracted.
///  2. Mutual may-induction fixpoint at the frontier level N: starting from
///     every live candidate, repeatedly drop any with a counterexample-to-
///     consecution relative to F_{N-1} ∧ survivors (a *clean* query — no
///     other candidate assumptions). Survivors S satisfy init ⊨ S and
///     F_{N-1} ∧ S ∧ T ⊨ S′, so by induction over path length every state
///     reachable in ≤ N steps satisfies S — each survivor is blockable at
///     level N and graduates into the delta levels, where propagation and
///     the F_∞ fixpoint treat it like any other clause.
/// Returns false when the budget/stop flag interrupted.
bool may_proof_pass(QueryContext& ctx, FrameDb& db, const PdrOptions& options);

/// Push frontier clauses to F_∞ when a subset is mutually inductive: the
/// greatest fixpoint of "drop any clause with a counterexample-to-
/// consecution relative to the remaining set (∧ F_∞ ∧ lemmas)". Survivors
/// satisfy initiation (blocked cubes never intersect init) and consecution
/// as a set, so each is an invariant — provable long before the frame trace
/// itself converges, which is what makes live exchange useful mid-race.
/// Returns false when the conflict budget or stop flag interrupted (callers
/// give up on the whole run, as elsewhere).
bool push_to_infinity(QueryContext& ctx, FrameDb& db, const PdrOptions& options);

}  // namespace genfv::mc::pdr
