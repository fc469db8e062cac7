/// CDCL solver tests: unit behaviour, incremental assumptions, unsat cores,
/// budgets — plus the property-based cross-check against brute-force
/// enumeration on random 3-CNF instances, which exercises propagation,
/// conflict analysis, minimization, restarts and DB reduction together.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>

#include "sat/backend.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace genfv::sat {
namespace {

Lit pos(Var v) { return mk_lit(v); }
Lit neg(Var v) { return mk_lit(v, true); }

TEST(Types, LiteralEncoding) {
  const Lit p = mk_lit(3);
  EXPECT_EQ(var(p), 3);
  EXPECT_FALSE(sign(p));
  EXPECT_TRUE(sign(~p));
  EXPECT_EQ(var(~p), 3);
  EXPECT_EQ(~~p, p);
  EXPECT_EQ(p ^ true, ~p);
  EXPECT_EQ(p ^ false, p);
}

TEST(Solver, TrivialSatAndModel) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
  ASSERT_TRUE(s.add_clause(neg(a)));
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(a), LBool::False);
  EXPECT_EQ(s.model_value(b), LBool::True);
}

TEST(Solver, EmptyClauseMakesInconsistent) {
  Solver s;
  (void)s.new_var();
  EXPECT_FALSE(s.add_clause(std::vector<Lit>{}));
  EXPECT_TRUE(s.inconsistent());
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, UnitContradiction) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a)));
  EXPECT_FALSE(s.add_clause(neg(a)));
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, TautologyAndDuplicatesAreHarmless) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a), neg(a), pos(b)}));  // tautology: dropped
  ASSERT_TRUE(s.add_clause({pos(b), pos(b), pos(b)}));  // collapses to unit
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(b), LBool::True);
}

TEST(Solver, PigeonholeThreeIntoTwoIsUnsat) {
  // p(i,j): pigeon i in hole j; 3 pigeons, 2 holes.
  Solver s;
  Var p[3][2];
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.add_clause(pos(p[i][0]), pos(p[i][1])));
  }
  for (int j = 0; j < 2; ++j) {
    for (int i1 = 0; i1 < 3; ++i1) {
      for (int i2 = i1 + 1; i2 < 3; ++i2) {
        ASSERT_TRUE(s.add_clause(neg(p[i1][j]), neg(p[i2][j])));
      }
    }
  }
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, AssumptionsAreTemporary) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause(neg(a), pos(b)));
  EXPECT_EQ(s.solve({pos(a)}), LBool::True);
  EXPECT_EQ(s.model_value(b), LBool::True);
  EXPECT_EQ(s.solve({pos(a), neg(b)}), LBool::False);
  // The same solver answers SAT again once the conflicting assumption goes.
  EXPECT_EQ(s.solve({neg(b)}), LBool::True);
  EXPECT_EQ(s.model_value(a), LBool::False);
}

TEST(Solver, FailedAssumptionCoreIsConflicting) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  ASSERT_TRUE(s.add_clause(neg(a), neg(b)));  // a && b impossible
  ASSERT_EQ(s.solve({pos(a), pos(b), pos(c)}), LBool::False);
  const auto& core = s.failed_assumptions();
  ASSERT_FALSE(core.empty());
  // c is irrelevant and must not be required; a or b must appear.
  for (const Lit l : core) EXPECT_NE(var(l), c);
  // Assert the core literals permanently: the formula must become UNSAT.
  Solver s2;
  (void)s2.new_var();
  (void)s2.new_var();
  (void)s2.new_var();
  ASSERT_TRUE(s2.add_clause(neg(a), neg(b)));
  bool consistent = true;
  for (const Lit l : core) consistent = s2.add_clause(l) && consistent;
  EXPECT_TRUE(!consistent || s2.solve() == LBool::False);
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  // Pigeonhole 6 into 5: hard enough to exceed a 5-conflict budget.
  Solver s;
  constexpr int kPigeons = 6;
  constexpr int kHoles = 5;
  std::vector<std::vector<Var>> p(kPigeons, std::vector<Var>(kHoles));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < kHoles; ++j) clause.push_back(pos(p[i][j]));
    ASSERT_TRUE(s.add_clause(clause));
  }
  for (int j = 0; j < kHoles; ++j) {
    for (int i1 = 0; i1 < kPigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < kPigeons; ++i2) {
        ASSERT_TRUE(s.add_clause(neg(p[i1][j]), neg(p[i2][j])));
      }
    }
  }
  s.set_conflict_budget(5);
  EXPECT_EQ(s.solve(), LBool::Undef);
  s.set_conflict_budget(-1);
  EXPECT_EQ(s.solve(), LBool::False);
}

TEST(Solver, TrueLitIsAlwaysTrue) {
  Solver s;
  const Lit t = s.true_lit();
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(t), LBool::True);
  EXPECT_EQ(s.solve({~t}), LBool::False);
}

// --- property-based cross-check against brute force ---------------------------

struct RandomCnfCase {
  std::uint64_t seed;
};

class SatBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

/// Enumerate all assignments; return true iff some satisfies all clauses.
bool brute_force_sat(int num_vars, const std::vector<std::vector<int>>& clauses,
                     std::uint32_t* satisfying = nullptr) {
  for (std::uint32_t m = 0; m < (1u << num_vars); ++m) {
    bool all_ok = true;
    for (const auto& clause : clauses) {
      bool clause_ok = false;
      for (const int lit : clause) {
        const int v = std::abs(lit) - 1;
        const bool val = (m >> v) & 1u;
        if ((lit > 0) == val) {
          clause_ok = true;
          break;
        }
      }
      if (!clause_ok) {
        all_ok = false;
        break;
      }
    }
    if (all_ok) {
      if (satisfying != nullptr) *satisfying = m;
      return true;
    }
  }
  return false;
}

TEST_P(SatBruteForce, AgreesOnRandom3Cnf) {
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 40; ++instance) {
    const int num_vars = 3 + static_cast<int>(rng.below(8));       // 3..10
    const int num_clauses = num_vars + static_cast<int>(rng.below(
                                           static_cast<std::uint64_t>(3 * num_vars)));
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int l = 0; l < len; ++l) {
        const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
        clause.push_back(rng.chance(0.5) ? v : -v);
      }
      clauses.push_back(std::move(clause));
    }

    Solver solver;
    for (int v = 0; v < num_vars; ++v) (void)solver.new_var();
    bool load_ok = true;
    for (const auto& clause : clauses) {
      std::vector<Lit> lits;
      for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
      load_ok = solver.add_clause(std::move(lits)) && load_ok;
    }

    const bool expected = brute_force_sat(num_vars, clauses);
    if (!load_ok) {
      ASSERT_FALSE(expected) << "solver found level-0 conflict on a SAT instance";
      continue;
    }
    const LBool verdict = solver.solve();
    ASSERT_EQ(verdict == LBool::True, expected) << "instance " << instance;

    if (verdict == LBool::True) {
      // The model must satisfy every clause.
      for (const auto& clause : clauses) {
        bool ok = false;
        for (const int l : clause) {
          const LBool mv = solver.model_value(mk_lit(std::abs(l) - 1, l < 0));
          if (mv == LBool::True) {
            ok = true;
            break;
          }
        }
        ASSERT_TRUE(ok) << "model violates a clause";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatBruteForce,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class SatAssumptionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SatAssumptionProperty, AssumptionsMatchAddedUnits) {
  // solve(assumptions) must agree with solving a copy where the assumptions
  // are permanent unit clauses.
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 20; ++instance) {
    const int num_vars = 4 + static_cast<int>(rng.below(6));
    std::vector<std::vector<int>> clauses;
    const int num_clauses = 2 * num_vars;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      for (int l = 0; l < 3; ++l) {
        const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
        clause.push_back(rng.chance(0.5) ? v : -v);
      }
      clauses.push_back(std::move(clause));
    }
    std::vector<int> assumptions;
    for (int v = 1; v <= num_vars; ++v) {
      if (rng.chance(0.3)) assumptions.push_back(rng.chance(0.5) ? v : -v);
    }

    Solver incremental;
    Solver monolithic;
    for (int v = 0; v < num_vars; ++v) {
      (void)incremental.new_var();
      (void)monolithic.new_var();
    }
    bool mono_ok = true;
    for (const auto& clause : clauses) {
      std::vector<Lit> lits;
      for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
      ASSERT_TRUE(incremental.add_clause(lits));
      mono_ok = monolithic.add_clause(std::move(lits)) && mono_ok;
    }
    std::vector<Lit> assumption_lits;
    for (const int l : assumptions) {
      assumption_lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
      if (mono_ok) mono_ok = monolithic.add_clause(mk_lit(std::abs(l) - 1, l < 0));
    }
    const LBool inc = incremental.solve(assumption_lits);
    const LBool mono = mono_ok ? monolithic.solve() : LBool::False;
    ASSERT_EQ(inc, mono);
    // The incremental solver must remain usable without assumptions.
    ASSERT_NE(incremental.solve(), LBool::Undef);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatAssumptionProperty, ::testing::Values(7, 11, 19, 23));

// --- DIMACS ---------------------------------------------------------------------

TEST(Dimacs, RoundTrip) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.clauses = {{1, -2}, {2, 3}, {-1}};
  const Cnf parsed = parse_dimacs(to_dimacs(cnf));
  EXPECT_EQ(parsed.num_vars, 3);
  EXPECT_EQ(parsed.clauses, cnf.clauses);
}

TEST(Dimacs, ParsesCommentsAndWhitespace) {
  const Cnf cnf = parse_dimacs("c a comment\np cnf 2 1\n 1 -2 0\n");
  EXPECT_EQ(cnf.num_vars, 2);
  ASSERT_EQ(cnf.clauses.size(), 1u);
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_THROW(parse_dimacs("p cnf x y\n1 0\n"), ParseError);
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n1\n"), ParseError);     // unterminated
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n5 0\n"), ParseError);   // var out of range
  EXPECT_THROW(parse_dimacs("p cnf 1 2\n1 0\n"), ParseError);   // count mismatch
}

TEST(Dimacs, LoadIntoSolver) {
  const Cnf cnf = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n");
  Solver s;
  ASSERT_TRUE(load_cnf(cnf, s));
  EXPECT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(Var{1}), LBool::True);
}

TEST(SolverStats, CountersAdvance) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
  (void)s.solve();
  EXPECT_GE(s.stats().solves, 1u);
  EXPECT_GE(s.stats().propagations + s.stats().decisions, 1u);
}

// --- inprocessing soundness ---------------------------------------------------

/// Random CNF generator shared by the inprocessing fuzz tests: wide enough
/// clause/variable mix to give subsumption, strengthening and elimination
/// real work, small enough for brute force.
std::vector<std::vector<int>> random_cnf(util::Xoshiro256& rng, int num_vars) {
  const int num_clauses = num_vars + static_cast<int>(rng.below(
                                         static_cast<std::uint64_t>(4 * num_vars)));
  std::vector<std::vector<int>> clauses;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> clause;
    const int len = 1 + static_cast<int>(rng.below(4));  // 1..4 literals
    for (int l = 0; l < len; ++l) {
      const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars)));
      clause.push_back(rng.chance(0.5) ? v : -v);
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

bool load_raw(Solver& s, int num_vars, const std::vector<std::vector<int>>& clauses) {
  while (s.num_vars() < num_vars) (void)s.new_var();
  bool ok = true;
  for (const auto& clause : clauses) {
    std::vector<Lit> lits;
    for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
    ok = s.add_clause(std::move(lits)) && ok;
  }
  return ok;
}

/// The model (extended through the elimination stack) must satisfy the
/// *original* clause list, not just the simplified database.
void expect_model_satisfies(const Solver& s,
                            const std::vector<std::vector<int>>& clauses) {
  for (const auto& clause : clauses) {
    bool ok = false;
    for (const int l : clause) {
      if (s.model_value(mk_lit(std::abs(l) - 1, l < 0)) == LBool::True) {
        ok = true;
        break;
      }
    }
    ASSERT_TRUE(ok) << "extended model violates an original clause";
  }
}

class InprocessFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InprocessFuzz, OnOffAndForcedSimplifyAgreeWithBruteForce) {
  // Three solvers over each instance: inprocessing off (the pinned baseline
  // path), on (cadence-scheduled — these instances are too small to hit the
  // conflict cadence, so this mostly checks the LBD-tier path), and on with
  // an explicit simplify_now() session (forces BVE/subsumption/vivification
  // through every clause). All must agree with brute force, and every SAT
  // model must extend over eliminated variables back to the original CNF.
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 30; ++instance) {
    const int num_vars = 4 + static_cast<int>(rng.below(9));  // 4..12
    const auto clauses = random_cnf(rng, num_vars);
    const bool expected = brute_force_sat(num_vars, clauses);

    Solver off;
    off.set_inprocessing(false);
    Solver on;
    Solver forced;
    const bool off_ok = load_raw(off, num_vars, clauses);
    const bool on_ok = load_raw(on, num_vars, clauses);
    const bool forced_ok = load_raw(forced, num_vars, clauses);
    ASSERT_EQ(off_ok, on_ok);
    ASSERT_EQ(off_ok, forced_ok);
    if (!off_ok) {
      ASSERT_FALSE(expected);
      continue;
    }
    if (!forced.inconsistent()) forced.simplify_now();

    ASSERT_EQ(off.solve() == LBool::True, expected) << "instance " << instance;
    ASSERT_EQ(on.solve() == LBool::True, expected) << "instance " << instance;
    ASSERT_EQ(forced.inconsistent() ? LBool::False : forced.solve(),
              expected ? LBool::True : LBool::False)
        << "instance " << instance;
    if (expected) {
      expect_model_satisfies(on, clauses);
      expect_model_satisfies(forced, clauses);
    }
    EXPECT_EQ(off.stats().inprocessings, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessFuzz,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class InprocessIncrementalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InprocessIncrementalFuzz, FrozenAssumptionsSurviveSimplifySessions) {
  // The incremental contract inprocessing must not break: interleave clause
  // batches, explicit simplify sessions and assumption solves, and compare
  // every answer against a plain solver with inprocessing off. Assumption
  // variables are frozen by solve(); a variable the simplifier eliminated
  // anyway is restored on re-import when a later batch mentions it.
  util::Xoshiro256 rng(GetParam());
  for (int instance = 0; instance < 10; ++instance) {
    const int num_vars = 6 + static_cast<int>(rng.below(6));  // 6..11
    Solver simplified;
    Solver baseline;
    baseline.set_inprocessing(false);
    while (simplified.num_vars() < num_vars) (void)simplified.new_var();
    while (baseline.num_vars() < num_vars) (void)baseline.new_var();

    bool consistent = true;
    for (int round = 0; round < 4 && consistent; ++round) {
      const auto batch = random_cnf(rng, num_vars);
      for (const auto& clause : batch) {
        std::vector<Lit> lits;
        for (const int l : clause) lits.push_back(mk_lit(std::abs(l) - 1, l < 0));
        const bool a = simplified.add_clause(lits);
        const bool b = baseline.add_clause(std::move(lits));
        ASSERT_EQ(a, b) << "level-0 divergence in round " << round;
        consistent = a;
        if (!consistent) break;
      }
      if (!consistent) break;
      simplified.simplify_now();
      if (simplified.inconsistent()) {
        // The session may find the level-0 conflict before baseline's next
        // solve does; the baseline must then answer UNSAT too.
        ASSERT_EQ(baseline.solve(), LBool::False);
        consistent = false;
        break;
      }

      std::vector<Lit> assumptions;
      for (int v = 0; v < num_vars; ++v) {
        if (rng.chance(0.25)) {
          assumptions.push_back(mk_lit(static_cast<Var>(v), rng.chance(0.5)));
        }
      }
      ASSERT_EQ(simplified.solve(assumptions), baseline.solve(assumptions))
          << "round " << round;
      ASSERT_EQ(simplified.solve(), baseline.solve()) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessIncrementalFuzz,
                         ::testing::Values(17, 29, 43, 71));

TEST(Inprocess, EliminatedVariableIsRestoredOnImport) {
  // x (var 2) appears only in two-clause chains and is a prime elimination
  // target; after simplify_now() removes it, a later clause mentioning x
  // must transparently restore the elimination stack and stay sound.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var x = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(a), pos(x)));
  ASSERT_TRUE(s.add_clause(neg(x), pos(b)));
  s.freeze(a);
  s.freeze(b);
  s.simplify_now();
  ASSERT_TRUE(s.is_eliminated(x)) << "setup no longer eliminates x";
  EXPECT_GE(s.stats().eliminated_vars, 1u);

  // Re-import: force x true and a false; the restored chain implies b.
  ASSERT_TRUE(s.add_clause(pos(x)));
  ASSERT_TRUE(s.add_clause(neg(a)));
  EXPECT_FALSE(s.is_eliminated(x));
  EXPECT_GE(s.stats().restored_vars, 1u);
  ASSERT_EQ(s.solve(), LBool::True);
  EXPECT_EQ(s.model_value(b), LBool::True);
  EXPECT_EQ(s.model_value(x), LBool::True);
}

TEST(Inprocess, FrozenVariablesAreNeverEliminated) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var x = s.new_var();
  s.freeze(x);
  ASSERT_TRUE(s.add_clause(pos(a), pos(x)));
  ASSERT_TRUE(s.add_clause(neg(x), pos(b)));
  s.simplify_now();
  EXPECT_FALSE(s.is_eliminated(x));
  // An assumption solve on the frozen variable still works directly.
  ASSERT_EQ(s.solve({neg(x), neg(a)}), LBool::False);
  ASSERT_EQ(s.solve({pos(x), neg(b)}), LBool::False);
  ASSERT_EQ(s.solve({pos(x), pos(b)}), LBool::True);
}

TEST(Inprocess, SubsumptionAndStrengtheningShrinkTheDatabase) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var d = s.new_var();
  for (const Var v : {a, b, c, d}) s.freeze(v);
  ASSERT_TRUE(s.add_clause(pos(a), pos(b)));                  // subsumes the next
  ASSERT_TRUE(s.add_clause({pos(a), pos(b), pos(c)}));
  ASSERT_TRUE(s.add_clause({neg(a), pos(b), pos(d)}));        // strengthened by #1
  const std::size_t before = s.num_clauses();
  s.simplify_now();
  EXPECT_GE(s.stats().subsumed_clauses, 1u);
  EXPECT_GE(s.stats().strengthened_clauses, 1u);
  EXPECT_LT(s.num_clauses(), before);
  // Semantics preserved: (a|b) & (b|d after strengthening).
  ASSERT_EQ(s.solve({neg(b), neg(d)}), LBool::False);
  ASSERT_EQ(s.solve({neg(a), neg(b)}), LBool::False);
  ASSERT_EQ(s.solve({pos(a), pos(b)}), LBool::True);
}

// --- DRAT proofs ---------------------------------------------------------------

/// Minimal forward RUP checker mirroring scripts/check_drat.py: naive
/// counting propagation is plenty for test-sized proofs, and sharing no
/// code with the solver keeps the check independent.
struct RupChecker {
  std::vector<std::vector<int>> active;

  static bool unit_propagates_to_conflict(std::vector<std::vector<int>> clauses,
                                          std::vector<int> assignment) {
    bool changed = true;
    auto value = [&](int lit) -> int {
      for (const int a : assignment) {
        if (a == lit) return 1;
        if (a == -lit) return -1;
      }
      return 0;
    };
    while (changed) {
      changed = false;
      for (const auto& clause : clauses) {
        int unassigned = 0;
        int last = 0;
        bool satisfied = false;
        for (const int lit : clause) {
          const int v = value(lit);
          if (v == 1) {
            satisfied = true;
            break;
          }
          if (v == 0) {
            ++unassigned;
            last = lit;
          }
        }
        if (satisfied) continue;
        if (unassigned == 0) return true;  // conflict
        if (unassigned == 1) {
          assignment.push_back(last);
          changed = true;
        }
      }
    }
    return false;
  }

  bool check_add(const std::vector<int>& clause) {
    std::vector<int> negated;
    for (const int lit : clause) negated.push_back(-lit);
    if (!unit_propagates_to_conflict(active, negated)) return false;
    active.push_back(clause);
    return true;
  }

  bool check_delete(const std::vector<int>& clause) {
    std::vector<int> key = clause;
    std::sort(key.begin(), key.end());
    for (auto it = active.begin(); it != active.end(); ++it) {
      std::vector<int> have = *it;
      std::sort(have.begin(), have.end());
      if (have == key) {
        active.erase(it);
        return true;
      }
    }
    return false;
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Drat, UnsatProofIsRupValidAndDerivesEmptyClause) {
  const std::string base = testing::TempDir() + "genfv_drat_ph43";
  Solver s;
  ASSERT_TRUE(s.start_proof(base));
  // Pigeonhole 4-into-3: small, genuinely UNSAT, needs real learning.
  const int pigeons = 4;
  const int holes = 3;
  std::vector<std::vector<int>> clauses;
  auto v = [&](int p, int h) { return p * holes + h + 1; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<int> at_least;
    for (int h = 0; h < holes; ++h) at_least.push_back(v(p, h));
    clauses.push_back(at_least);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        clauses.push_back({-v(p1, h), -v(p2, h)});
      }
    }
  }
  ASSERT_TRUE(load_raw(s, pigeons * holes, clauses));
  s.simplify_now();
  ASSERT_EQ(s.inconsistent() ? LBool::False : s.solve(), LBool::False);

  // Replay: the logged .cnf must match what we added, and every .drat add
  // must be RUP against the growing active set, ending in the empty clause.
  const Cnf logged = parse_dimacs(slurp(base + ".cnf"));
  ASSERT_EQ(logged.clauses.size(), clauses.size());
  RupChecker checker;
  checker.active = logged.clauses;

  bool empty_derived = false;
  std::istringstream proof(slurp(base + ".drat"));
  std::string line;
  std::size_t steps = 0;
  while (std::getline(proof, line)) {
    std::istringstream fields(line);
    std::string first;
    fields >> first;
    if (first.empty() || first == "c") continue;
    const bool deletion = first == "d";
    std::vector<int> lits;
    int lit = 0;
    if (!deletion) lits.push_back(std::stoi(first));
    while (fields >> lit && lit != 0) lits.push_back(lit);
    if (!deletion && !lits.empty() && lits.back() == 0) lits.pop_back();
    if (!deletion && lits.size() == 1 && lits[0] == 0) lits.clear();
    ++steps;
    if (deletion) {
      ASSERT_TRUE(checker.check_delete(lits)) << "bad deletion: " << line;
    } else {
      ASSERT_TRUE(checker.check_add(lits)) << "non-RUP step: " << line;
      if (lits.empty()) {
        empty_derived = true;
        break;
      }
    }
  }
  EXPECT_GT(steps, 0u);
  EXPECT_TRUE(empty_derived) << "UNSAT run never logged the empty clause";
}

TEST(Drat, SatRunLogsInputsButNoEmptyClause) {
  const std::string base = testing::TempDir() + "genfv_drat_sat";
  {
    // Scoped: the .cnf is finalized when the solver (and its writer) die.
    Solver s;
    ASSERT_TRUE(s.start_proof(base));
    const Var a = s.new_var();
    const Var b = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
    ASSERT_TRUE(s.add_clause(neg(a), pos(b)));
    ASSERT_EQ(s.solve(), LBool::True);
  }
  const Cnf logged = parse_dimacs(slurp(base + ".cnf"));
  EXPECT_EQ(logged.clauses.size(), 2u);
  // No proof line is the lone "0" empty-clause add.
  std::istringstream proof(slurp(base + ".drat"));
  std::string line;
  while (std::getline(proof, line)) EXPECT_NE(line, "0");
}

// --- backend registry -----------------------------------------------------------

TEST(BackendRegistry, MakeBackendBuildsTheInternalSolver) {
  const std::unique_ptr<Backend> backend = make_backend();
  ASSERT_NE(backend, nullptr);
  EXPECT_NE(dynamic_cast<Solver*>(backend.get()), nullptr);
  const Var v = backend->new_var();
  ASSERT_TRUE(backend->add_clause(pos(v)));
  EXPECT_EQ(backend->solve(), LBool::True);
  EXPECT_EQ(backend->model_value(v), LBool::True);
}

TEST(BackendRegistry, MakeBackendAppliesEveryConfigField) {
  // Defaults: an unconstrained solver with inprocessing on.
  const std::unique_ptr<Backend> plain = make_backend();
  EXPECT_TRUE(dynamic_cast<Solver&>(*plain).inprocessing());
  const Var a = plain->new_var();
  const Var b = plain->new_var();
  ASSERT_TRUE(plain->add_clause(pos(a), pos(b)));
  EXPECT_EQ(plain->solve(), LBool::True);

  // A zero conflict budget gives up at the first decision.
  SolverConfig budgeted;
  budgeted.conflict_budget = 0;
  const std::unique_ptr<Backend> capped = make_backend(budgeted);
  const Var c = capped->new_var();
  const Var d = capped->new_var();
  ASSERT_TRUE(capped->add_clause(pos(c), pos(d)));
  EXPECT_EQ(capped->solve(), LBool::Undef);

  // A raised stop flag makes every solve abandon with Undef; inprocessing
  // is off and the DRAT proof was started before the first clause.
  std::atomic<bool> stop{true};
  SolverConfig config;
  config.stop = &stop;
  config.inprocess = false;
  config.drat_path = testing::TempDir() + "genfv_make_backend";
  const std::unique_ptr<Backend> configured = make_backend(config);
  EXPECT_FALSE(dynamic_cast<Solver&>(*configured).inprocessing());
  EXPECT_TRUE(std::ifstream(config.drat_path + ".drat").good());
  const Var v = configured->new_var();
  ASSERT_TRUE(configured->add_clause(pos(v), neg(v)));
  EXPECT_EQ(configured->solve(), LBool::Undef);
  stop = false;
  EXPECT_EQ(configured->solve(), LBool::True);
}

}  // namespace
}  // namespace genfv::sat
