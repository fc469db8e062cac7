#pragma once

/// \file solver_pool.hpp
/// A pool of CDCL solvers with uniform configuration, built for query engines
/// that hold several solvers at once (PDR's query context holds a transition
/// and an initiation solver). The pool owns every solver it hands out,
/// applies the same conflict budget and stop flag to each, and supports
/// *in-place rebuild*: replacing one handle's solver with a fresh instance
/// while folding the retired solver's lifetime statistics into a pool-level
/// accumulator, so `total_stats()` stays monotone across rebuilds.
///
/// Rebuild exists because incremental query engines litter their solver with
/// retired one-shot artefacts — PDR's per-query activation gates become
/// permanently-satisfied clauses plus a unit literal each, and they
/// accumulate without bound on long runs. Discarding the solver and
/// re-encoding the live facts is the classic IC3 "solver cleanup" move; the
/// pool provides the mechanism, the owning query context decides when and
/// re-encodes what is still live.
///
/// Thread-safety: per-handle access (`at()`) is unsynchronized — a pool and
/// its handles belong to one engine run on one thread; distinct handles never
/// alias. The pool-level accumulators (retired stats, rebuild counter) are
/// mutex-guarded, as are the `total_stats()` / `rebuilds()` reads.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sat/backend.hpp"
#include "util/thread_safety.hpp"

namespace genfv::sat {

/// Configuration stamped onto every solver the pool creates (including
/// rebuilt replacements).
struct SolverConfig {
  /// Best-effort conflict cap per solve(); -1 = unlimited.
  std::int64_t conflict_budget = -1;
  /// Cooperative cancellation flag (read-only, relaxed); may be nullptr.
  /// Must outlive the pool — see Backend::set_stop_flag.
  const std::atomic<bool>* stop = nullptr;
  /// Enable inprocessing on backends that support it (default on).
  bool inprocess = true;
  /// Backend to construct (see sat::make_backend); "internal" = in-tree CDCL.
  std::string backend = "internal";
  /// When non-empty, every solver the pool creates logs a DRAT proof to
  /// `<drat_base>-p<handle>[-r<rebuild#>]`. Meant for single-solver runs;
  /// the suffixes keep multi-handle pools from clobbering one file.
  std::string drat_base;
};

class SolverPool {
 public:
  explicit SolverPool(SolverConfig config = {});

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Create a fresh configured solver owned by the pool; returns its handle.
  /// Handles are dense indices and stay valid for the pool's lifetime.
  std::size_t acquire();

  std::size_t size() const noexcept { return solvers_.size(); }

  Backend& at(std::size_t handle);
  const Backend& at(std::size_t handle) const;

  /// Replace `handle`'s solver with a fresh configured instance. The retired
  /// solver's lifetime stats are folded into the pool accumulator first, so
  /// they are never lost; its clauses, variables and models are dropped.
  /// References to the old solver are invalidated.
  Backend& rebuild(std::size_t handle);

  /// Number of rebuild() calls over the pool's lifetime.
  std::uint64_t rebuilds() const;

  /// Lifetime statistics: every live solver plus everything retired through
  /// rebuild(). Monotone across rebuilds. Live solvers' counters are read
  /// unsynchronized, so call only while none of the pool's solvers is
  /// solving.
  SolverStats total_stats() const;

 private:
  std::unique_ptr<Backend> make_solver(std::size_t handle) const;

  SolverConfig config_;
  std::vector<std::unique_ptr<Backend>> solvers_;
  /// Guards the cross-handle accumulators below; per-handle solver access is
  /// unguarded.
  mutable util::Mutex mu_{"sat.solver_pool"};
  SolverStats retired_ GENFV_GUARDED_BY(mu_);
  std::uint64_t rebuilds_ GENFV_GUARDED_BY(mu_) = 0;
};

}  // namespace genfv::sat
