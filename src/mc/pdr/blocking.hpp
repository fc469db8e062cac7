#pragma once

/// \file blocking.hpp
/// Proof-obligation blocking — the heart of the PDR main loop. Given the
/// `FrameDb` and obligation queue, `strengthen_frontier` enumerates frontier
/// states that violate the property and blocks each backwards-reachable
/// predecessor with a generalized relatively-inductive clause, until the
/// frontier is clean (Blocked), a concrete chain reaches the initial states
/// (Counterexample), or a budget/stop condition fires.

#include "mc/pdr/context.hpp"
#include "mc/pdr/frame_db.hpp"
#include "mc/pdr/obligation.hpp"

namespace genfv::mc::pdr {

enum class BlockOutcome {
  Blocked,          ///< frontier clean: every bad state blocked
  Counterexample,   ///< a chain reached init; see the returned arena index
  Budget,           ///< conflict/obligation budget or the stop flag fired
};

/// One full frontier-strengthening phase: enumerate frontier bad states one
/// at a time and fully block (or refute) each before the next query. On
/// Counterexample, `*cex_index` is the arena index of the init-state end of
/// the chain.
BlockOutcome strengthen_frontier(QueryContext& ctx, FrameDb& db, ObligationQueue& queue,
                                 const PdrOptions& options, std::size_t frontier,
                                 std::size_t* cex_index);

}  // namespace genfv::mc::pdr
