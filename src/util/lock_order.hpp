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
/// Violations are counted, described (first occurrence per edge), and logged
/// at Error level; they never abort, so a full test run reports every
/// distinct violation at once. Tests assert `cycle_count() == 0` and use
/// `reset()` around seeded-violation cases.
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
/// "lock-order cycle: serve.pool -> serve.proof_cache -> serve.pool".
std::vector<std::string> cycle_reports();

/// Number of instrumented locks the calling thread currently holds.
std::size_t held_by_this_thread() noexcept;

/// Forget all recorded edges and cycles (held stacks are
/// per-thread state and survive). Tests only; callers must be quiescent.
void reset();

}  // namespace genfv::util::lockdep
