//===-- tests/RaceStressTest.cpp - Shadow-memory stress tests ------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Concurrency stress for the two-level shadow memory (DESIGN.md §10):
// real controlled threads hammering disjoint and shared granules through
// Var<T>/plainWrite, page-boundary forgetRange, and a scripted access
// history checked against its committed report list.
// The whole binary also runs under ASan/UBSan via scripts/verify.sh,
// which is what makes the lock-free fast path's memory discipline a
// tested property rather than a comment.
//
//===----------------------------------------------------------------------===//

#include "race/RaceDetector.h"
#include "runtime/Session.h"
#include "runtime/Thread.h"
#include "runtime/Var.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

using namespace tsr;

namespace {

//===----------------------------------------------------------------------===//
// Direct-detector tests (simulated tids, no sessions)
//===----------------------------------------------------------------------===//

/// How thread 2 touches memory after thread 1 wrote it. A surviving
/// write slot races a later unordered write (write-write) as well as a
/// later unordered read (write-read), and the two go through different
/// shadow paths (the read one through read-sharing), so both must see
/// the forgotten range empty.
enum class ReAccess : uint8_t { Write, Read };

class ShadowTableTest : public ::testing::TestWithParam<ReAccess> {
protected:
  void SetUp() override {
    RD.registerMainThread();
    RD.forkChild(0, 1);
    RD.forkChild(0, 2);
  }

  void reAccess(uintptr_t Addr, size_t Size) {
    if (GetParam() == ReAccess::Write)
      RD.onPlainWrite(2, Addr, Size);
    else
      RD.onPlainRead(2, Addr, Size);
  }

  RaceDetector RD;
};

// A shadow page covers 512 granules = 4096 bytes. A forget spanning
// several pages must drop every remembered access — whole interior pages
// via O(1) retirement, partial edge pages cell by cell — so re-accesses
// by another unordered thread see no stale history.
TEST_P(ShadowTableTest, ForgetRangeAcrossPageBoundariesDropsAllState) {
  constexpr uintptr_t PageBytes = 4096;
  // Start mid-page so both edges are partial and the interior pages are
  // dropped whole.
  const uintptr_t Start = 16 * PageBytes + 1024;
  const size_t Span = 3 * PageBytes + 512;
  for (uintptr_t A = Start; A < Start + Span; A += 256)
    RD.onPlainWrite(1, A, 8);
  ASSERT_EQ(RD.reportCount(), 0u);

  RD.forgetRange(Start, Span);
  EXPECT_GE(RD.statsSnapshot().ShadowPagesRetired, 2u);

  // Thread 2 never synchronised with thread 1: any surviving slot from
  // before the forget would now race.
  for (uintptr_t A = Start; A < Start + Span; A += 256)
    reAccess(A, 8);
  EXPECT_EQ(RD.reportCount(), 0u);

  // The same accesses outside the forgotten range do race (sanity that
  // the workload detects races at all).
  RD.onPlainWrite(1, Start + Span + 64, 8);
  reAccess(Start + Span + 64, 8);
  EXPECT_EQ(RD.reportCount(), 1u);
}

// Re-touching a retired page must reinstall a fresh one.
TEST_P(ShadowTableTest, RetiredPageComesBackEmpty) {
  constexpr uintptr_t PageBytes = 4096;
  const uintptr_t Page = 64 * PageBytes;
  for (uintptr_t A = Page; A < Page + PageBytes; A += 512)
    RD.onPlainWrite(1, A, 8);
  RD.forgetRange(Page, PageBytes);
  for (uintptr_t A = Page; A < Page + PageBytes; A += 512)
    reAccess(A, 8);
  EXPECT_EQ(RD.reportCount(), 0u);
  // And the fresh page carries live state again.
  RD.onPlainWrite(1, Page, 8);
  EXPECT_EQ(RD.reportCount(), 1u);
}

// "Backends" is the suite's established instance prefix; the parameter
// now varies the re-access kind over the one shadow backend.
INSTANTIATE_TEST_SUITE_P(Backends, ShadowTableTest,
                         ::testing::Values(ReAccess::Write, ReAccess::Read));

/// Replays one scripted mixed-access history against a detector.
/// Exercises same-epoch repeats (the fast path), range narrowing,
/// read-sharing inflation, atomic/plain conflicts and forgets.
void runScript(RaceDetector &RD) {
  RD.registerMainThread();
  RD.forkChild(0, 1);
  RD.forkChild(0, 2);
  RD.forkChild(0, 3);
  const uintptr_t A = 0x4000;
  // Same-epoch repeats by one thread.
  for (int I = 0; I != 8; ++I)
    RD.onPlainWrite(1, A, 8);
  for (int I = 0; I != 8; ++I)
    RD.onPlainRead(1, A + 16, 4);
  // Sub-range re-access at the same epoch (narrowing; not fast-pathable).
  RD.onPlainWrite(1, A, 4);
  RD.onPlainRead(1, A + 16, 2);
  // Concurrent readers inflate, then an unordered write races the set.
  RD.onPlainRead(2, A + 16, 4);
  RD.onPlainRead(3, A + 16, 4);
  RD.onPlainWrite(2, A + 16, 4);
  // Unordered write-write and read-vs-write races.
  RD.onPlainWrite(2, A, 8);
  RD.onPlainRead(3, A, 8);
  // A narrowed same-epoch write forgets the bytes it no longer covers,
  // so an unordered write to those bytes is clean. A fast path that
  // skipped the narrowing would report it.
  RD.onPlainWrite(1, A + 96, 8);
  RD.onPlainWrite(1, A + 96, 8);
  RD.onPlainWrite(1, A + 96, 4);
  RD.onPlainWrite(2, A + 100, 4);
  // Atomic vs plain conflicts on a third granule.
  RD.onAtomicWrite(1, A + 32, 4);
  RD.onPlainWrite(2, A + 32, 4);
  RD.onPlainRead(3, A + 32, 4);
  // Synchronise 1 -> 2 through a sync clock, then 2's accesses are clean.
  VectorClock Sync;
  RD.releaseJoin(1, Sync);
  RD.acquire(2, Sync);
  RD.onPlainWrite(1, A + 64, 8);
  // (1's write above races nobody; 2 acquired before 1 wrote, so this
  // next write *does* race with it.)
  RD.onPlainWrite(2, A + 64, 8);
  // Forget, then clean reuse.
  RD.forgetRange(A, 128);
  RD.onPlainWrite(1, A, 8);
  RD.onPlainWrite(1, A + 64, 8);
}

using ReportTuple =
    std::tuple<uintptr_t, size_t, int, Tid, int, Tid, std::string>;

std::vector<ReportTuple> reportTuples(RaceDetector &RD) {
  std::vector<ReportTuple> Out;
  for (const RaceReport &R : RD.reports())
    Out.emplace_back(R.Addr, R.Size, static_cast<int>(R.Prior), R.PriorTid,
                     static_cast<int>(R.Current), R.CurrentTid, R.Name);
  std::sort(Out.begin(), Out.end());
  return Out;
}

// The exact reports the scripted history produces, committed: a change
// to shadow storage or to the FastTrack state machine that moves, drops
// or adds a report fails here. Sorted as reportTuples sorts.
TEST(ShadowScript, HistoryProducesCommittedReports) {
  constexpr int Read = static_cast<int>(AccessKind::PlainRead);
  constexpr int Write = static_cast<int>(AccessKind::PlainWrite);
  constexpr int AtomicWrite = static_cast<int>(AccessKind::AtomicWrite);
  const std::vector<ReportTuple> Expected = {
      {0x4000, 8, Write, 1, Write, 2, ""},
      {0x4000, 8, Write, 2, Read, 3, ""},
      {0x4010, 4, Read, 1, Write, 2, ""},
      {0x4020, 4, Write, 2, Read, 3, ""},
      {0x4020, 4, AtomicWrite, 1, Read, 3, ""},
      {0x4020, 4, AtomicWrite, 1, Write, 2, ""},
      {0x4040, 8, Write, 1, Write, 2, ""},
  };
  RaceDetector RD;
  runScript(RD);
  EXPECT_EQ(reportTuples(RD), Expected);
  // And the fast path actually fired.
  EXPECT_GT(RD.statsSnapshot().FastPathHits, 0u);
  EXPECT_GT(RD.statsSnapshot().ReadInflations, 0u);
}

//===----------------------------------------------------------------------===//
// Session stress (real controlled threads)
//===----------------------------------------------------------------------===//

SessionConfig stressConfig(Mode ExecMode) {
  SessionConfig C;
  C.Strategy = StrategyKind::Random;
  C.ExecMode = ExecMode;
  C.WeakMemory = false;
  C.Seed0 = 0xA5A5;
  C.Seed1 = 0x5A5A;
  C.Env.Seed0 = 1;
  C.Env.Seed1 = 2;
  C.LivenessIntervalMs = 0;
  return C;
}

constexpr int StressThreads = 4;
constexpr int StressIters = 64;
constexpr int SlotsPerThread = 16;
constexpr int SharedSlots = 4;

struct StressArena {
  // Disjoint: one slab per thread, nobody else touches it.
  uint64_t Slabs[StressThreads][SlotsPerThread] = {};
  // Shared: every thread writes these unsynchronised (real races).
  uint64_t Shared[SharedSlots] = {};
};

void hammer(StressArena &Arena, int Me, bool TouchShared) {
  for (int It = 0; It != StressIters; ++It) {
    // Consecutive same-slot accesses: the first write/read of a slot
    // takes the slow path, the repeats are same-epoch fast-path hits.
    for (int S = 0; S != SlotsPerThread; ++S)
      for (int K = 0; K != 4; ++K)
        plainWrite(Arena.Slabs[Me][S], static_cast<uint64_t>(It + K));
    uint64_t Sum = 0;
    for (int S = 0; S != SlotsPerThread; ++S)
      for (int K = 0; K != 4; ++K)
        Sum += plainRead(Arena.Slabs[Me][S]);
    if (TouchShared)
      for (int S = 0; S != SharedSlots; ++S)
        plainWrite(Arena.Shared[S], Sum);
  }
}

RunReport runStress(SessionConfig C, bool TouchShared) {
  Session S(std::move(C));
  return S.run([TouchShared] {
    StressArena Arena;
    std::vector<Thread> Workers;
    for (int T = 1; T != StressThreads; ++T)
      Workers.push_back(Thread::spawn(
          [&Arena, T, TouchShared] { hammer(Arena, T, TouchShared); }));
    hammer(Arena, 0, TouchShared);
    for (Thread &W : Workers)
      W.join();
    // The arena dies with the lambda; drop its shadow state so a later
    // run reusing the stack bytes sees no stale history.
    Session::current()->race().forgetRange(
        reinterpret_cast<uintptr_t>(&Arena), sizeof(Arena));
  });
}

// Disjoint slabs: zero races, and the same-epoch fast path must carry
// the bulk of the accesses without a single report.
TEST(RaceStress, DisjointHammerIsRaceFreeAndHitsFastPath) {
  const RunReport R =
      runStress(stressConfig(Mode::Free), /*TouchShared=*/false);
  EXPECT_TRUE(R.Races.empty());
  EXPECT_GT(R.Metrics.counterOr("race.same_epoch_hits"), 0u);
  EXPECT_GT(R.Metrics.counterOr("race.fast_path_hits"), 0u);
  EXPECT_GT(R.Metrics.counterOr("race.plain_accesses"), 0u);
  EXPECT_GT(R.Metrics.gaugeOr("race.shadow_pages"), 0.0);
}

// Shared slots: the report count is a pure happens-before property of
// the schedule, so replaying the recorded demo must reproduce it.
TEST(RaceStress, SharedHammerReportCountIsDeterministicOnReplay) {
  Demo D;
  size_t RecordedRaces = 0;
  {
    const RunReport R =
        runStress(stressConfig(Mode::Record), /*TouchShared=*/true);
    RecordedRaces = R.Races.size();
    D = R.RecordedDemo;
  }
  ASSERT_GT(RecordedRaces, 0u);

  SessionConfig PC = stressConfig(Mode::Replay);
  PC.ReplayDemo = &D;
  const RunReport R = runStress(std::move(PC), /*TouchShared=*/true);
  EXPECT_EQ(R.Races.size(), RecordedRaces);
  EXPECT_EQ(R.Desync, DesyncKind::None);
}

// Churn: threads construct and destroy named Vars (registerName +
// forgetRange + unregisterName) while others hammer their own pages.
// This is the ASan/UBSan shakeout for page retirement racing lock-free
// lookups; correctness assertion is just "no reports on disjoint data".
TEST(RaceStress, VarChurnWhileHammeringStaysClean) {
  SessionConfig C = stressConfig(Mode::Free);
  Session S(std::move(C));
  const RunReport R = S.run([] {
    StressArena Arena;
    std::vector<Thread> Workers;
    for (int T = 1; T != StressThreads; ++T)
      Workers.push_back(Thread::spawn([&Arena, T] {
        for (int It = 0; It != StressIters; ++It) {
          Var<uint64_t> Local(0, "churn");
          Local.set(Local.get() + It);
          plainWrite(Arena.Slabs[T][It % SlotsPerThread], Local.get());
        }
      }));
    hammer(Arena, 0, /*TouchShared=*/false);
    for (Thread &W : Workers)
      W.join();
    Session::current()->race().forgetRange(
        reinterpret_cast<uintptr_t>(&Arena), sizeof(Arena));
  });
  EXPECT_TRUE(R.Races.empty());
}

} // namespace
