#include "mc/portfolio.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>
#include <utility>

#include "ir/clone.hpp"
#include "util/stopwatch.hpp"
#include "util/telemetry.hpp"
#include "util/thread_safety.hpp"

namespace genfv::mc {

namespace {

/// Member engines, in launch (threaded) / slice (time-sliced) order.
constexpr std::array<EngineKind, 3> kMembers = {EngineKind::Bmc, EngineKind::KInduction,
                                                EngineKind::Pdr};

bool conclusive(Verdict v) noexcept { return v != Verdict::Unknown; }

/// Span/thread names must be immortal strings (trace events store raw
/// pointers), so members map to literals rather than to_string() copies.
const char* member_span_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::Bmc: return "member:bmc";
    case EngineKind::KInduction: return "member:k-induction";
    case EngineKind::Pdr: return "member:pdr";
    case EngineKind::Portfolio: break;  // never a member
  }
  return "member:?";
}

/// Rebuild a trace produced over a clone against the original system. Trace
/// frames bind only Input/State leaves, which the clone maps one-to-one.
sim::Trace translate_trace(const sim::Trace& trace, ir::SystemClone& clone,
                           const ir::TransitionSystem& original) {
  sim::Trace out(&original);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    sim::Assignment env;
    env.reserve(trace.frame(i).size());
    for (const auto& [node, value] : trace.frame(i)) {
      env.emplace(clone.to_original(node), value);
    }
    out.append(std::move(env));
  }
  return out;
}

}  // namespace

PortfolioEngine::PortfolioEngine(const ir::TransitionSystem& ts, EngineOptions options)
    : ts_(ts), options_(std::move(options)) {}

EngineResult PortfolioEngine::prove_all(const std::vector<ir::NodeRef>& properties) {
  if (options_.max_steps == 0) {
    // A zero step budget buys no exploration in any member. Report Unknown
    // uniformly instead of letting the time-sliced mode build a {0} budget
    // schedule (and the threaded mode race three no-op engines).
    EngineResult out;
    for (const EngineKind kind : kMembers) {
      EngineBreakdown b;
      b.engine = to_string(kind);
      b.note = "zero step budget";
      out.breakdown.push_back(std::move(b));
    }
    return out;
  }
  return options_.portfolio_threads ? run_threaded(properties)
                                    : run_time_sliced(properties);
}

namespace {

/// Member engines get the portfolio's options wholesale — copying fields one
/// by one silently dropped every knob added after the copy was written (and
/// would have dropped the exchange wiring too). Only the genuinely
/// per-member fields are overridden afterwards.
EngineOptions member_options(const EngineOptions& portfolio, EngineKind kind,
                             const std::shared_ptr<LemmaMailbox>& mailbox,
                             std::size_t slot) {
  EngineOptions opts = portfolio;
  opts.exchange_mailbox = mailbox;
  opts.exchange_slot = slot;
  // Members run the same solver roles (BMC and PDR both write a bare
  // `<base>`), so each gets its own proof base.
  if (!opts.drat_path.empty()) opts.drat_path += "-" + to_string(kind);
  return opts;
}

}  // namespace

EngineResult PortfolioEngine::run_threaded(const std::vector<ir::NodeRef>& properties) {
  util::Stopwatch watch;
  const std::size_t n = kMembers.size();

  // Clone the system once per member and translate every input expression —
  // all on this thread, before any worker exists (NodeManager is not
  // thread-safe; each worker then touches only its own clone).
  std::vector<std::unique_ptr<ir::SystemClone>> clones;
  std::vector<std::vector<ir::NodeRef>> member_props(n);
  std::vector<std::vector<ir::NodeRef>> member_lemmas(n);
  std::vector<std::vector<ir::NodeRef>> member_candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    clones.push_back(std::make_unique<ir::SystemClone>(ts_));
    for (const ir::NodeRef p : properties) {
      member_props[i].push_back(clones[i]->to_clone(p));
    }
    for (const ir::NodeRef l : options_.lemmas) {
      member_lemmas[i].push_back(clones[i]->to_clone(l));
    }
    for (const ir::NodeRef c : options_.pdr_candidate_lemmas) {
      member_candidates[i].push_back(clones[i]->to_clone(c));
    }
  }

  // Shared race state. The first conclusive member records itself as the
  // winner and raises `cancel`, which every other member's engine polls.
  // The mailbox is the only other cross-thread state: it carries clauses in
  // a manager-neutral form, so no NodeManager is ever shared (exchange.hpp).
  const std::shared_ptr<LemmaMailbox> mailbox =
      options_.exchange && n > 1 ? std::make_shared<LemmaMailbox>(n) : nullptr;
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  struct RaceState {
    explicit RaceState(std::size_t members) {
      util::MutexLock lock(mu);
      results.resize(members);
      notes.resize(members);
    }
    util::Mutex mu{"mc.portfolio"};
    util::CondVar cv;
    std::size_t done GENFV_GUARDED_BY(mu) = 0;
    std::ptrdiff_t winner GENFV_GUARDED_BY(mu) = -1;
    std::vector<EngineResult> results GENFV_GUARDED_BY(mu);
    std::vector<std::string> notes GENFV_GUARDED_BY(mu);
  };
  RaceState race(n);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers.emplace_back([&, i] {
      if (util::tracing_on()) {
        util::set_trace_thread_name(std::string("portfolio-") + to_string(kMembers[i]));
      }
      GENFV_TRACE_SPAN("portfolio", member_span_name(kMembers[i]));
      EngineResult r;
      std::string note;
      try {
        EngineOptions opts = member_options(options_, kMembers[i], mailbox, i);
        opts.lemmas = member_lemmas[i];  // translated into this member's clone
        opts.pdr_candidate_lemmas = member_candidates[i];
        opts.stop = cancel;
        auto engine = make_engine(kMembers[i], clones[i]->system(), opts);
        r = engine->prove_all(member_props[i]);
      } catch (const std::exception& e) {
        // Anything escaping the thread body would std::terminate the whole
        // process; degrade the member to Unknown instead. Covers UsageError
        // (e.g. PDR rejecting input-dependent init values) as well as
        // resource failures like std::bad_alloc from a deep unrolling.
        note = e.what();
      }
      util::MutexLock lock(race.mu);
      race.results[i] = std::move(r);
      race.notes[i] = std::move(note);
      if (conclusive(race.results[i].verdict) && race.winner < 0) {
        race.winner = static_cast<std::ptrdiff_t>(i);
        cancel->store(true, std::memory_order_relaxed);
        GENFV_TRACE_INSTANT("portfolio", "winner");
      }
      ++race.done;
      race.cv.notify_all();
    });
  }

  // Wait for everyone (losers exit quickly once `cancel` is up), forwarding
  // an external cancellation request into the members' flag.
  {
    util::MutexLock lock(race.mu);
    while (race.done < n) {
      if (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed)) {
        cancel->store(true, std::memory_order_relaxed);
      }
      race.cv.wait_for(race.mu, std::chrono::milliseconds(10));
    }
  }
  for (std::thread& t : workers) t.join();

  // Every worker has joined; move the race outputs into locals so the merge
  // below reads plain single-threaded data (and needs no lock).
  std::vector<EngineResult> results;
  std::vector<std::string> notes;
  std::ptrdiff_t winner = -1;
  {
    util::MutexLock lock(race.mu);
    results = std::move(race.results);
    notes = std::move(race.notes);
    winner = race.winner;
  }

  // Merge — single-threaded again, so translating back into the original
  // system's NodeManager is safe.
  EngineResult out;
  for (std::size_t i = 0; i < n; ++i) {
    EngineBreakdown b;
    b.engine = to_string(kMembers[i]);
    b.verdict = results[i].verdict;
    b.depth = results[i].depth;
    b.stats = results[i].stats;
    b.note = notes[i];
    if (mailbox != nullptr) {
      b.lemmas_published = mailbox->published_by(i);
      b.lemmas_absorbed = mailbox->absorbed_by(i);
    }
    out.stats += b.stats;
    out.breakdown.push_back(std::move(b));
  }
  if (winner >= 0) {
    const std::size_t w = static_cast<std::size_t>(winner);
    EngineResult& won = results[w];
    out.verdict = won.verdict;
    out.depth = won.depth;
    out.winner = to_string(kMembers[w]);
    if (won.cex.has_value()) {
      out.cex = translate_trace(*won.cex, *clones[w], ts_);
    }
    for (const ir::NodeRef clause : won.invariant) {
      out.invariant.push_back(clones[w]->to_original(clause));
    }
  } else {
    out.verdict = Verdict::Unknown;
    for (std::size_t i = 0; i < n; ++i) {
      out.depth = std::max(out.depth, results[i].depth);
      // Keep the repair loop fed: forward a step CEX if some member (in
      // practice k-induction) produced one before stalling.
      if (!out.step_cex.has_value() && results[i].step_cex.has_value()) {
        out.step_cex = translate_trace(*results[i].step_cex, *clones[i], ts_);
      }
    }
  }
  out.stats.seconds = watch.seconds();
  return out;
}

EngineResult PortfolioEngine::run_time_sliced(const std::vector<ir::NodeRef>& properties) {
  util::Stopwatch watch;
  const std::size_t n = kMembers.size();

  // Iterative deepening: every member gets a slice at each budget before any
  // member gets a deeper one, so a cheap conclusive verdict at a small bound
  // beats an expensive one at a large bound — deterministically. The guard
  // before the final push_back is defensive: the strict `<` walk never lands
  // on max_steps today, but a duplicated final budget would silently re-run
  // every member, so the invariant is worth pinning against future edits.
  // (prove_all short-circuits `max_steps == 0`, which used to degenerate
  // into a {0} schedule here.)
  std::vector<std::size_t> budgets;
  for (std::size_t b = 1; b < options_.max_steps; b *= 2) budgets.push_back(b);
  if (budgets.empty() || budgets.back() != options_.max_steps) {
    budgets.push_back(options_.max_steps);
  }

  // One mailbox across every slice: a member's fresh engine instance at the
  // next budget re-reads the whole backlog (consumer cursors are per engine
  // run), so clauses PDR proved at budget b reach k-induction at budget 2b.
  const std::shared_ptr<LemmaMailbox> mailbox =
      options_.exchange && n > 1 ? std::make_shared<LemmaMailbox>(n) : nullptr;

  EngineResult out;
  std::vector<EngineBreakdown> breakdown(n);
  for (std::size_t i = 0; i < n; ++i) breakdown[i].engine = to_string(kMembers[i]);

  auto finish = [&](std::ptrdiff_t winner, EngineResult member_result) {
    if (winner >= 0) {
      const std::size_t w = static_cast<std::size_t>(winner);
      out.verdict = member_result.verdict;
      out.depth = member_result.depth;
      out.cex = std::move(member_result.cex);
      out.invariant = std::move(member_result.invariant);
      out.winner = to_string(kMembers[w]);
      out.step_cex.reset();  // stale artefact from an earlier, shallower slice
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.stats += breakdown[i].stats;
      if (winner < 0) out.depth = std::max(out.depth, breakdown[i].depth);
      if (mailbox != nullptr) {
        breakdown[i].lemmas_published = mailbox->published_by(i);
        breakdown[i].lemmas_absorbed = mailbox->absorbed_by(i);
      }
    }
    out.breakdown = std::move(breakdown);
    out.stats.seconds = watch.seconds();
    return out;
  };

  for (const std::size_t budget : budgets) {
    for (std::size_t i = 0; i < n; ++i) {
      if (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed)) {
        return finish(-1, {});
      }
      EngineResult r;
      GENFV_TRACE_SPAN("portfolio", member_span_name(kMembers[i]));
      try {
        EngineOptions opts = member_options(options_, kMembers[i], mailbox, i);
        opts.max_steps = budget;
        auto engine = make_engine(kMembers[i], ts_, opts);
        r = engine->prove_all(properties);
      } catch (const std::exception& e) {
        breakdown[i].note = e.what();
        continue;
      }
      breakdown[i].verdict = r.verdict;
      breakdown[i].depth = std::max(breakdown[i].depth, r.depth);
      breakdown[i].stats += r.stats;
      // Keep the *deepest* step CEX: each slice's artefact supersedes the
      // shallower one from the previous budget, matching what the threaded
      // mode (one full-depth run) hands the repair loop.
      if (r.step_cex.has_value()) out.step_cex = std::move(r.step_cex);
      if (conclusive(r.verdict)) return finish(static_cast<std::ptrdiff_t>(i), std::move(r));
    }
  }
  return finish(-1, {});
}

}  // namespace genfv::mc
