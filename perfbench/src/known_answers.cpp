#include "known_answers.hpp"

#include <map>
#include <stdexcept>

#include "sim/interpreter.hpp"

namespace perfbench {
namespace {

/// Whether each design's targets hold. Zoo designs (designs/*.cpp) are
/// correct RTL whose targets are invariants — the paper's flows exist to
/// prove them; the tests/corpus rows follow the pinned shootout table
/// (scripts/check_shootout.py): the two toggle files carry a reachable bad
/// state, every other file a true property.
const std::map<std::string, bool>& truth_table() {
  static const std::map<std::string, bool> table = {
      // design zoo
      {"sync_counters", true}, {"triple_counters", true}, {"gray_counter", true},
      {"updown_pair", true}, {"lfsr_pair", true}, {"lfsr16", true},
      {"dual_accumulator", true}, {"fifo_ctrl", true}, {"parity_codec", true},
      {"hamming74", true}, {"secded84", true}, {"token_ring", true},
      {"sequencer", true},
      // tests/corpus
      {"counter_wrap", true}, {"rotate_onehot", true}, {"rot_barrel", true},
      {"sdiv_props", true}, {"lfsr16_rt", true}, {"token_ring_rt", true},
      {"updown_pair_rt", true}, {"toggle_bad", false}, {"toggle_cex", false},
  };
  return table;
}

/// Per-engine verdicts pinned at the shootout budgets (12 steps,
/// dual_accumulator 6), copied from scripts/check_shootout.py. A verdict
/// that differs from its pin but matches the truth is flagged, not failed:
/// a faster engine may legitimately close a proof the pin calls unknown.
const std::map<std::string, std::map<std::string, std::string>>& pinned_table() {
  static const std::map<std::string, std::map<std::string, std::string>> table = {
      {"sync_counters", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "unknown"}}},
      {"sequencer", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "proven"}}},
      {"token_ring", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "proven"}}},
      {"updown_pair", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "proven"}}},
      {"lfsr16", {{"bmc", "unknown"}, {"pdr", "unknown"}}},
      {"gray_counter", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "unknown"}}},
      {"fifo_ctrl", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "unknown"}}},
      {"dual_accumulator",
       {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "proven"}}},
      {"counter_wrap", {{"bmc", "unknown"}, {"k-induction", "proven"}, {"pdr", "proven"}}},
      {"rotate_onehot", {{"bmc", "unknown"}, {"k-induction", "proven"}, {"pdr", "proven"}}},
      {"rot_barrel", {{"bmc", "unknown"}, {"k-induction", "proven"}, {"pdr", "proven"}}},
      {"sdiv_props", {{"bmc", "unknown"}, {"k-induction", "proven"}, {"pdr", "proven"}}},
      {"toggle_bad",
       {{"bmc", "falsified"}, {"k-induction", "falsified"}, {"pdr", "falsified"}}},
      {"toggle_cex",
       {{"bmc", "falsified"}, {"k-induction", "falsified"}, {"pdr", "falsified"}}},
      {"lfsr16_rt", {{"bmc", "unknown"}, {"k-induction", "proven"}, {"pdr", "unknown"}}},
      {"token_ring_rt", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "proven"}}},
      {"updown_pair_rt", {{"bmc", "unknown"}, {"k-induction", "unknown"}, {"pdr", "proven"}}},
  };
  return table;
}

}  // namespace

bool targets_hold(const std::string& design) { return truth_table().at(design); }

std::string pinned_verdict(const std::string& design, const std::string& engine) {
  const auto row = pinned_table().find(design);
  if (row == pinned_table().end()) return "";
  const auto cell = row->second.find(engine);
  return cell == row->second.end() ? "" : cell->second;
}

Judgement judge(const std::string& design, genfv::mc::Verdict verdict,
                const std::optional<genfv::sim::Trace>& cex,
                const genfv::ir::TransitionSystem& ts,
                const std::vector<genfv::ir::NodeRef>& targets) {
  using genfv::mc::Verdict;
  const bool holds = targets_hold(design);
  switch (verdict) {
    case Verdict::Unknown:
      return {Outcome::Undecided, ""};
    case Verdict::Proven:
      if (holds) return {Outcome::Decided, ""};
      return {Outcome::Wrong, "proven, but a target fails"};
    case Verdict::Falsified: {
      if (holds) return {Outcome::Wrong, "falsified, but every target holds"};
      if (!cex.has_value()) return {Outcome::Wrong, "falsified without a counterexample"};
      const std::string why = cex_violates(ts, *cex, targets);
      if (!why.empty()) return {Outcome::Wrong, "counterexample does not replay: " + why};
      return {Outcome::Decided, ""};
    }
  }
  return {Outcome::Wrong, "unknown verdict value"};
}

std::string cex_violates(const genfv::ir::TransitionSystem& ts, const genfv::sim::Trace& cex,
                         const std::vector<genfv::ir::NodeRef>& targets) {
  using genfv::sim::evaluate;
  if (cex.empty()) return "empty trace";
  try {
    const auto& frame0 = cex.frame(0);
    for (const auto& state : ts.states()) {
      if (state.init != nullptr && evaluate(state.init, frame0) != evaluate(state.var, frame0)) {
        return "frame 0 is not an initial state";
      }
    }
    bool violated = false;
    for (std::size_t i = 0; i < cex.size(); ++i) {
      const auto& frame = cex.frame(i);
      if (i > 0) {
        const auto next = genfv::sim::step(ts, cex.frame(i - 1));
        for (const auto& state : ts.states()) {
          if (next.at(state.var) != evaluate(state.var, frame)) {
            return "frame " + std::to_string(i) + " does not follow from frame " +
                   std::to_string(i - 1);
          }
        }
      }
      for (const auto constraint : ts.constraints()) {
        if (evaluate(constraint, frame) == 0) {
          return "constraint violated at frame " + std::to_string(i);
        }
      }
      for (const auto target : targets) {
        if (evaluate(target, frame) == 0) violated = true;
      }
      if (violated) return "";
    }
    return "no target is violated on any frame";
  } catch (const std::exception& e) {
    return std::string("replay threw: ") + e.what();
  }
}

}  // namespace perfbench
