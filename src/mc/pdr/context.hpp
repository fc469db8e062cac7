#pragma once

/// \file context.hpp
/// PDR query context: one transition solver + one initiation solver, their
/// unrollers, the activation-literal ladder, and a lazily-synced mirror of
/// the `FrameDb`.
///
/// A context is the only place solver literals exist; everything above it
/// (blocking, generalization, propagation, orchestration) trades in
/// manager-neutral cubes. A context is not internally synchronized: one
/// engine run owns it and drives it from one thread.
///
/// FrameDb mirroring: `sync()` drains the database's pending events — level
/// pushes allocate activation literals, blocked cubes become
/// activation-gated clauses, graduations become ungated F_∞ clauses
/// asserted at both solver frames. The mirror may lag the database between
/// syncs; that only *weakens* the frame approximation a query sees, which is
/// sound for every PDR query shape (a stale F_k is still an
/// over-approximation of the states reachable in ≤ k steps).
///
/// Gate hygiene: finished blocking queries retire their activation gates as
/// permanently-satisfied unit clauses; the context counts the litter.
///
/// Candidate ("may") clauses mirror through the same events: SeedMay
/// allocates a dedicated per-candidate gate and asserts the clause at frame
/// 0 behind it; RetractMay retires that gate. Queries assume the live gates
/// and apply the clean-rerun discipline (see relative_query), so no answer
/// that leaves this context ever depends on an unproven candidate.
///
/// Ternary lifting: the context owns a `TernarySim` over its system.

#include <map>
#include <memory>
#include <vector>

#include "mc/pdr/frame_db.hpp"
#include "mc/pdr/obligation.hpp"
#include "mc/pdr/pdr.hpp"
#include "mc/pdr/ternary.hpp"
#include "mc/unroller.hpp"
#include "sat/backend.hpp"

namespace genfv::mc::pdr {

class QueryContext {
 public:
  /// `ts`, `property` and `lemmas` must all live in the same NodeManager;
  /// `ts`, `property`, `db` and `options` must outlive the context. With
  /// `options.drat_path` set, the transition solver logs its proof to
  /// `<drat_path>` and the initiation solver to `<drat_path>-p1`.
  QueryContext(const ir::TransitionSystem& ts, ir::NodeRef property,
               const std::vector<ir::NodeRef>& lemmas, const PdrOptions& options,
               FrameDb& db);

  const ir::TransitionSystem& system() const noexcept { return ts_; }
  sat::Backend& solver() { return *solver_; }
  sat::Backend& init_solver() { return *init_solver_; }

  /// Lifetime statistics of both solvers, summed.
  sat::SolverStats stats() const;

  Unroller& unroller() { return *unr_; }
  Unroller& init_unroller() { return *init_unr_; }

  /// Property literal at frame 0 of the transition solver / of the
  /// init-constrained solver.
  sat::Lit prop_lit() const noexcept { return prop0_; }
  sat::Lit init_prop_lit() const noexcept { return init_prop_; }

  /// True once cooperative cancellation has been requested.
  bool stopped() const noexcept;

  /// Mirror maintenance: replay every FrameDb event recorded since the last
  /// sync, in order. Called internally by every query entry point; cheap
  /// when there is nothing new.
  void sync();

  /// Solver literal that is true iff cube literal `l` holds at `frame`.
  sat::Lit cube_lit(std::size_t frame, const StateLit& l);

  /// Assumptions activating F_level in this mirror: the activation literals
  /// of levels ≥ level. Requires a prior sync() covering `level`.
  std::vector<sat::Lit> assumptions(std::size_t level) const;

  /// SAT(F_frontier ∧ ¬P)? — find a frontier state violating the property.
  /// Live may clauses are assumed (and fall back cleanly, see solve_frames).
  sat::LBool solve_frontier_bad(std::size_t frontier);

  /// Fill `out` with the full frame-0 state cube and the concrete
  /// state/input values of the current model of the transition solver.
  void extract_state(Obligation& out);

  /// After intersects_init returned True: overwrite `out.state_values` with
  /// the initial-state witness from the init solver's model. With ternary
  /// lifting, a lifted cube can contain initial states other than the
  /// concrete predecessor — counterexample re-simulation must start from a
  /// state that actually satisfies init (see pdr.cpp's build_cex).
  void extract_init_witness(Obligation& out);

  /// Ternary-lift an extracted frontier bad state (goal: the property stays
  /// forced false) / predecessor (goal: `successor` stays forced), dropping
  /// state-bit literals from `o.cube`. No-ops unless
  /// PdrOptions::ternary_lifting is set. Feeds the lifted_bits counter.
  void lift_bad(Obligation& o);
  void lift_pred(Obligation& o, const Cube& successor);

  /// State-bit literals dropped by this context's lifting — feeds
  /// EngineStats::lifted_bits. Input bits proven irrelevant by the trailing
  /// input pass feed EngineStats::lifted_input_bits.
  std::size_t lifted_bits() const noexcept { return lifted_bits_; }
  std::size_t lifted_input_bits() const noexcept { return lifted_input_bits_; }

  /// SAT(init ∧ cube)? — does the cube contain an initial state.
  /// Never assumes may clauses: initiation checks must be exact.
  sat::LBool intersects_init(const Cube& cube);

  /// Undef counts as "may intersect" — conservative for generalization,
  /// which must never block a potentially-initial state.
  bool may_intersect_init(const Cube& cube);

  /// SAT(F_{level-1} ∧ [¬cube] ∧ T ∧ cube')? On UNSAT, `core_out` (if given)
  /// receives the failed assumptions; intersect with the primed cube
  /// literals to find which were needed.
  ///
  /// Candidate seeding: live may clauses are additionally assumed. A SAT
  /// answer is unaffected (the model is a real transition); an UNSAT answer
  /// is accepted only when no may gate appears in the failed-assumption
  /// core — otherwise the query re-runs *clean* (without candidates), and
  /// if the clean run is SAT, every candidate the found state violates is
  /// retracted (it manufactured a spurious "blocked" answer). Returned
  /// answers and cores are therefore always candidate-free facts.
  sat::LBool relative_query(const Cube& cube, std::size_t level, bool assume_not_cube,
                            std::vector<sat::Lit>* core_out);

  /// SAT(F_{level-1} ∧ survivors ∧ T ∧ cube')? — the may-proof consecution
  /// check: assumes exactly the gates of `survivor_ids` (no other
  /// candidates), so an UNSAT certifies consecution relative to the named
  /// set only. Requires seed_candidates; `cube` is one survivor's cube.
  sat::LBool may_consecution_query(const std::vector<std::size_t>& survivor_ids,
                                   const Cube& cube, std::size_t level);

  /// Fresh one-shot activation gate for a temporary clause group (e.g. one
  /// F_∞ fixpoint pass). Retire it with retire_gate once the group is dead.
  sat::Lit new_gate();

  /// Permanently satisfy every clause gated by `gate` and count the litter.
  void retire_gate(sat::Lit gate);

  /// Lifetime gate litter — feeds EngineStats.
  std::size_t retired_gates() const noexcept { return retired_gates_; }

 private:
  void apply_event(const FrameDb::Event& event);
  void assert_blocked(const Cube& cube, std::size_t level);
  void assert_infinity(const Cube& cube);
  void assert_may(const Cube& cube, std::size_t id);

  /// Solve with `assumptions` plus every live may gate, applying the
  /// clean-rerun/retraction discipline documented on relative_query. The
  /// degenerate no-candidates path is exactly a plain solve (bit-for-bit
  /// with the pre-seeding engine).
  sat::LBool solve_frames(std::vector<sat::Lit> assumptions,
                          std::vector<sat::Lit>* core_out);

  /// After a clean SAT that a may-assumed query had blocked: retract every
  /// live candidate whose cube the model state satisfies (those gates are
  /// what excluded the state).
  void retract_violated_candidates();

  const ir::TransitionSystem& ts_;
  const PdrOptions& options_;
  FrameDb& db_;
  ir::NodeRef property_;

  std::unique_ptr<sat::Backend> solver_;
  std::unique_ptr<sat::Backend> init_solver_;
  std::unique_ptr<Unroller> unr_;
  std::unique_ptr<Unroller> init_unr_;
  /// activations_[0] gates the init-value equalities; activations_[k] gates
  /// the clauses blocked at delta level k.
  std::vector<sat::Lit> activations_;
  sat::Lit prop0_ = sat::kUndefLit;
  sat::Lit init_prop_ = sat::kUndefLit;

  /// Live may-clause mirror: candidate id -> its dedicated gate + cube.
  /// std::map keeps assumption order deterministic (sorted by id).
  struct MayEntry {
    sat::Lit gate = sat::kUndefLit;
    Cube cube;
  };
  std::map<std::size_t, MayEntry> may_;

  /// Lazily-constructed ternary simulator (ternary_lifting only).
  std::unique_ptr<TernarySim> ternary_;
  std::size_t lifted_bits_ = 0;
  std::size_t lifted_input_bits_ = 0;

  std::size_t retired_gates_ = 0;
};

}  // namespace genfv::mc::pdr
