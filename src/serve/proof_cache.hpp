#pragma once

/// \file proof_cache.hpp
/// Persistent proof cache for the verification server (docs/serve.md).
///
/// Every (transition system, target set) is keyed on `ir::struct_hash` — a
/// semantic-structural hash that survives renames, NodeManager clones and
/// serialize round trips, and changes under any semantic edit. A Proven
/// run's inductive invariant is stored in the manager-neutral clause form of
/// `mc::ExchangedClause` (state declaration index + bit + polarity), the
/// same currency the portfolio's lemma exchange uses: it carries no NodeRef,
/// so an entry written by one process materializes cleanly into any later
/// process's NodeManager.
///
/// Soundness story (the part that makes a *persistent* cache safe):
/// **cached invariants are candidates, never facts.**
///  * An **exact hit** (system and property hash both match) replays the
///    stored clauses through `recertify`: initiation and goal-by-goal
///    consecution of targets ∧ clauses over the *current* system
///    (`mc::certify_invariant`) — an independent SAT proof that the
///    conjunction is inductive and implies the targets. Only a passing check
///    yields the cached verdict; a failing one (corrupted entry, hash
///    collision) rejects the entry and falls back to a cold run.
///  * A **near miss** (state-signature similarity above the threshold)
///    feeds the surviving clause subset into PDR's *candidate* ("may") path
///    (`EngineOptions::pdr_candidate_lemmas`), where a wrong clause can cost
///    work but never soundness (docs/lemmas.md).
///  * A cache file that fails to parse — truncated, hand-edited, version
///    mismatch — is rejected and counted, never "best-effort" trusted.
///
/// Thread-safety: all methods are internally synchronized; lookups hand out
/// `shared_ptr<const CacheEntry>` so a concurrent store/invalidate can never
/// pull an entry out from under a reader.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/struct_hash.hpp"
#include "ir/transition_system.hpp"
#include "mc/engine.hpp"
#include "mc/exchange.hpp"
#include "util/thread_safety.hpp"

namespace genfv::serve {

/// One cached proof. `state_sigs` (per-state width + init/next structural
/// hash, declaration order) is what near-miss diffing runs against — the
/// original system is long gone when the edited design arrives.
struct CacheEntry {
  std::string design;  ///< informational only (reports, file headers)
  std::uint64_t sys_hash = 0;
  std::uint64_t prop_hash = 0;
  std::vector<ir::StateSig> state_sigs;
  std::size_t depth = 0;  ///< depth of the run that produced the proof
  std::vector<mc::ExchangedClause> clauses;  ///< the inductive invariant
};

enum class CacheOutcome {
  Miss,   ///< nothing usable
  Exact,  ///< sys+prop hash match; clauses are a recertification candidate
  Near,   ///< similar state space; clauses are PDR "may" candidates
};

std::string to_string(CacheOutcome outcome);

struct CacheLookup {
  CacheOutcome outcome = CacheOutcome::Miss;
  std::shared_ptr<const CacheEntry> entry;  ///< non-null unless Miss
  double similarity = 0.0;                  ///< state-signature match fraction
};

class ProofCache {
 public:
  struct Options {
    /// Directory for `<key>.pcache` files; "" = in-memory only.
    std::string dir;
    /// Minimum state-signature similarity for a near miss. Below it, warm
    /// starting would seed mostly-dead clauses — not unsound, just wasted
    /// candidate budget.
    double near_threshold = 0.5;
  };

  /// Loads every parseable entry under `options.dir` (when set); malformed
  /// files are counted as rejected and skipped.
  explicit ProofCache(Options options);

  /// Classify `ts` + targets against the cache. Exact beats Near; among
  /// near misses the highest-similarity entry wins.
  CacheLookup lookup(const ir::TransitionSystem& ts,
                     const std::vector<ir::NodeRef>& targets) const;

  /// Store a Proven result's invariant for `ts` + targets. Returns false —
  /// and stores nothing — unless the verdict is Proven and *every* invariant
  /// clause converts to the manager-neutral form (the set is only jointly
  /// inductive, so a partial store could never recertify).
  bool store(const std::string& design, const ir::TransitionSystem& ts,
             const std::vector<ir::NodeRef>& targets, const mc::EngineResult& result);

  /// Drop the entry for `sys_hash`/`prop_hash` (memory and disk) — called
  /// when recertification refutes it.
  void invalidate(std::uint64_t sys_hash, std::uint64_t prop_hash);

  std::size_t size() const;
  std::uint64_t rejected_files() const;

  /// Combined hash of a target set (order-sensitive: the target list is part
  /// of the job, not a bag).
  static std::uint64_t targets_hash(ir::StructHasher& hasher,
                                    const std::vector<ir::NodeRef>& targets);

  // --- entry (de)serialization, public for tests ----------------------------
  /// Text rendering of one entry (versioned header; line-based).
  static std::string render_entry(const CacheEntry& entry);
  /// Parse a rendering; throws ParseError (located "pcache:line N") on any
  /// malformed content — count mismatches, bad numbers, missing header.
  static CacheEntry parse_entry(const std::string& text);

 private:
  std::uint64_t load_dir();
  void persist(const CacheEntry& entry) const;
  static std::uint64_t entry_key(std::uint64_t sys_hash, std::uint64_t prop_hash);
  std::string entry_path(std::uint64_t key) const;

  const Options options_;
  mutable util::Mutex mu_{"serve.proof_cache"};
  std::map<std::uint64_t, std::shared_ptr<const CacheEntry>> entries_ GENFV_GUARDED_BY(mu_);
  std::uint64_t rejected_ GENFV_GUARDED_BY(mu_) = 0;
};

/// Independent re-certification of a cached invariant over the *current*
/// system: materialize every clause into `ts`'s manager, then check
/// initiation and consecution of targets ∧ clauses goal by goal
/// (`mc::certify_invariant`, which reads only the stop flag, conflict budget
/// and SAT settings of `options`). Returns the check's result — Proven means
/// the cached verdict is re-established by a fresh SAT proof; anything else
/// means the entry must be rejected, unless the stop flag cut the check
/// short. Clauses that do not fit `ts` (state index out of range) fail the
/// certification immediately, with no SAT call, rather than being silently
/// dropped.
mc::EngineResult recertify(const ir::TransitionSystem& ts,
                           const std::vector<ir::NodeRef>& targets,
                           const CacheEntry& entry, const mc::EngineOptions& options);

/// Materialize the subset of `entry.clauses` that still fits `ts` — the
/// near-miss warm-start payload for `EngineOptions::pdr_candidate_lemmas`.
/// Out-of-range clauses are skipped (they name states the edit removed).
std::vector<ir::NodeRef> surviving_clauses(const ir::TransitionSystem& ts,
                                           const CacheEntry& entry);

}  // namespace genfv::serve
