/// Debug lockdep tests (util/lock_order.hpp): the acquisition-graph checker
/// must detect a seeded A->B / B->A inversion, a transitive 3-cycle and a
/// same-class nesting, stay silent on clean ordered nesting, and track the
/// calling thread's held locks. Every test is skipped in configurations that
/// compile the lockdep layer away (Release without -DGENFV_LOCK_ORDER=ON);
/// the Debug ctest runs — including the sanitizer CI legs — exercise it for
/// real. Tests reset the global graph on entry and exit so the process-wide
/// "zero cycles at the end of a clean suite" property holds for this binary
/// too: the seeded violations below must never outlive their test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/lock_order.hpp"
#include "util/thread_safety.hpp"

namespace genfv::util {
namespace {

namespace ld = lockdep;

class LockOrder : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ld::enabled()) GTEST_SKIP() << "lockdep compiled away in this config";
    ld::reset();
  }
  void TearDown() override { ld::reset(); }
};

TEST_F(LockOrder, CleanNestingReportsNothing) {
  Mutex a{"lockdep_test.A"};
  Mutex b{"lockdep_test.B"};
  // Consistent A-before-B nesting, plus standalone acquisitions: a DAG.
  for (int i = 0; i < 3; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
  }
  { MutexLock lb(b); }
  EXPECT_EQ(ld::cycle_count(), 0u);
  EXPECT_EQ(ld::held_by_this_thread(), 0u);
}

TEST_F(LockOrder, AbBaInversionIsDetected) {
  Mutex a{"lockdep_test.A"};
  Mutex b{"lockdep_test.B"};
  {
    MutexLock la(a);
    MutexLock lb(b);  // edge A -> B
  }
  {
    MutexLock lb(b);
    MutexLock la(a);  // edge B -> A closes the cycle
  }
  ASSERT_EQ(ld::cycle_count(), 1u);
  const std::string report = ld::cycle_reports().front();
  EXPECT_NE(report.find("lockdep_test.A"), std::string::npos) << report;
  EXPECT_NE(report.find("lockdep_test.B"), std::string::npos) << report;
  EXPECT_NE(report.find("cycle"), std::string::npos) << report;
}

TEST_F(LockOrder, TransitiveInversionIsDetected) {
  // A -> B and B -> C are individually fine; C -> A closes a 3-cycle that no
  // pairwise check would see.
  Mutex a{"lockdep_test.A"};
  Mutex b{"lockdep_test.B"};
  Mutex c{"lockdep_test.C"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);
  }
  EXPECT_EQ(ld::cycle_count(), 0u);
  {
    MutexLock lc(c);
    MutexLock la(a);
  }
  ASSERT_EQ(ld::cycle_count(), 1u);
  EXPECT_NE(ld::cycle_reports().front().find("lockdep_test.C"),
            std::string::npos);
}

TEST_F(LockOrder, SameClassNestingIsFlagged) {
  // Two *instances* of one lock class nested: an ABBA deadlock waiting for
  // the right interleaving. Lockdep treats class-level self-edges as cycles.
  Mutex first{"lockdep_test.same"};
  Mutex second{"lockdep_test.same"};
  {
    MutexLock lf(first);
    MutexLock ls(second);
  }
  ASSERT_EQ(ld::cycle_count(), 1u);
  EXPECT_NE(ld::cycle_reports().front().find("lockdep_test.same"),
            std::string::npos);
}

TEST_F(LockOrder, HeldCountTracksScopedLocks) {
  Mutex a{"lockdep_test.A"};
  EXPECT_EQ(ld::held_by_this_thread(), 0u);
  {
    MutexLock lock(a);
    EXPECT_EQ(ld::held_by_this_thread(), 1u);
    lock.Unlock();
    EXPECT_EQ(ld::held_by_this_thread(), 0u);
    lock.Lock();
    EXPECT_EQ(ld::held_by_this_thread(), 1u);
  }
  EXPECT_EQ(ld::held_by_this_thread(), 0u);
}

}  // namespace
}  // namespace genfv::util
