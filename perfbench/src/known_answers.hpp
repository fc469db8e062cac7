#pragma once

/// \file known_answers.hpp
/// The known answer for every design the benchmark runs, kept in the
/// benchmark's own files and never derived from a run of the code under
/// test, plus an independent replay of every counterexample.

#include <optional>
#include <string>
#include <vector>

#include "ir/transition_system.hpp"
#include "mc/result.hpp"
#include "sim/trace.hpp"

namespace perfbench {

enum class Outcome {
  Decided,    ///< the verdict is the known answer
  Undecided,  ///< Unknown: bound or budget ran out
  Wrong,      ///< the verdict contradicts the known answer (a failed operation)
};

struct Judgement {
  Outcome outcome = Outcome::Undecided;
  std::string why;  ///< set for Wrong
};

/// True when every target of `design` holds (false: some target fails).
/// Throws std::out_of_range for a design the table does not know.
bool targets_hold(const std::string& design);

/// Verdict pinned for (design, engine) at the engine-matrix budgets, or ""
/// when nothing is pinned. Engine labels: "bmc", "k-induction", "pdr".
std::string pinned_verdict(const std::string& design, const std::string& engine);

/// Judge one verdict on `design`. A Falsified verdict must carry a trace
/// that replays as a violation of one of `targets` (see cex_violates).
Judgement judge(const std::string& design, genfv::mc::Verdict verdict,
                const std::optional<genfv::sim::Trace>& cex,
                const genfv::ir::TransitionSystem& ts,
                const std::vector<genfv::ir::NodeRef>& targets);

/// Replay `cex` through the reference interpreter: frame 0 satisfies every
/// init, each later frame's states are sim::step of the frame before, every
/// environment constraint holds on every frame, and some target evaluates to
/// 0 on some frame. Returns "" when it does, else what failed.
std::string cex_violates(const genfv::ir::TransitionSystem& ts, const genfv::sim::Trace& cex,
                         const std::vector<genfv::ir::NodeRef>& targets);

}  // namespace perfbench
