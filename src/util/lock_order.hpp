#pragma once

/// \file lock_order.hpp
/// Debug lockdep: runtime lock-order checking over the annotated mutexes of
/// thread_safety.hpp.
///
/// When compiled in (GENFV_LOCK_ORDER, defined by CMake for Debug builds),
/// every Mutex acquire/release reports to this layer, which maintains
///
///  * a per-thread stack of currently-held locks, and
///  * a global directed graph over lock *classes* (all Mutex instances
///    constructed with the same name share one node, like Linux lockdep):
///    an edge A -> B is recorded the first time some thread acquires a
///    B-class lock while holding an A-class lock.
///
/// A cycle in that graph is a potential deadlock — two threads taking the
/// same pair of locks in opposite orders will eventually interleave badly,
/// whether or not any observed schedule actually deadlocked. Unlike TSan
/// (which only sees the schedules that ran), the graph accumulates ordering
/// facts across the whole process, so one clean pass over the test suite
/// certifies an acyclic lock order for every schedule those code paths
/// admit.
///
/// The layer also checks the engine-specific hazard called out in PR 4:
/// `sat::SolverPool::rebuild()` invalidates the handle's solver, so invoking
/// it while holding any engine mutex risks both deadlock (rebuild takes the
/// pool accumulator lock) and use-after-free-by-design (a holder of the old
/// solver reference observing the handle mid-swap). `check_no_locks_held` records a hazard
/// whenever rebuild runs with locks held.
///
/// Violations are counted, described (first occurrence per edge), and logged
/// at Error level; they never abort, so a full test run reports every
/// distinct violation at once. Tests assert `cycle_count() == 0` /
/// `hazard_count() == 0` and use `reset()` around seeded-violation cases.
///
/// In non-Debug builds every query below compiles to a zero/empty stub and
/// the Mutex hooks vanish (thread_safety.hpp), so Release pays nothing.

#include <cstddef>
#include <string>
#include <vector>

namespace genfv::util::lockdep {

/// True when the lockdep layer is compiled in (GENFV_LOCK_ORDER).
bool enabled() noexcept;

/// Number of distinct lock-order cycles detected so far.
std::size_t cycle_count() noexcept;

/// Human-readable description of every detected cycle, e.g.
/// "lock-order cycle: pdr.framedb -> sat.solver_pool -> pdr.framedb".
std::vector<std::string> cycle_reports();

/// Number of held-across-forbidden-region hazards (check_no_locks_held).
std::size_t hazard_count() noexcept;

std::vector<std::string> hazard_reports();

/// Record a hazard if the calling thread holds any instrumented mutex.
/// `what` names the forbidden region ("sat::SolverPool::rebuild").
/// No-op stub when lockdep is compiled out.
void check_no_locks_held(const char* what) noexcept;

/// Number of instrumented locks the calling thread currently holds.
std::size_t held_by_this_thread() noexcept;

/// Forget all recorded edges, cycles and hazards (held stacks are
/// per-thread state and survive). Tests only; callers must be quiescent.
void reset();

}  // namespace genfv::util::lockdep
