//===-- tests/ProfileTest.cpp - Causal profiler & telemetry tests --------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// The profiling contract: the core analysis (critical path, utilization,
// contention matrix) is bit-identical between a recording, its replay, and
// the offline reconstruction from the demo's streams — the exact pipeline
// `tsr-demo-dump profile` runs; the full report (lock ledger, blocking
// breakdown, waker edges) is deterministic across record and replay;
// metrics snapshotting is idempotent; telemetry streams are well-formed
// JSONL; and the Chrome export layers profile tracks over the trace.
//
//===----------------------------------------------------------------------===//

#include "apps/litmus/Litmus.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/Tsr.h"
#include "support/DemoInspect.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

using namespace tsr;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON structural validator (mirrors TraceTest's).
//===----------------------------------------------------------------------===//

struct JsonCursor {
  const char *P;
  const char *End;
  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
};

bool validValue(JsonCursor &C, int Depth);

bool validString(JsonCursor &C) {
  if (C.P == C.End || *C.P != '"')
    return false;
  ++C.P;
  while (C.P != C.End && *C.P != '"') {
    if (*C.P == '\\') {
      ++C.P;
      if (C.P == C.End)
        return false;
    }
    ++C.P;
  }
  if (C.P == C.End)
    return false;
  ++C.P;
  return true;
}

bool validNumber(JsonCursor &C) {
  const char *Start = C.P;
  if (C.P != C.End && (*C.P == '-' || *C.P == '+'))
    ++C.P;
  bool Digits = false;
  while (C.P != C.End && (std::isdigit(static_cast<unsigned char>(*C.P)) ||
                          *C.P == '.' || *C.P == 'e' || *C.P == 'E' ||
                          *C.P == '-' || *C.P == '+')) {
    Digits = Digits || std::isdigit(static_cast<unsigned char>(*C.P));
    ++C.P;
  }
  return C.P != Start && Digits;
}

bool validValue(JsonCursor &C, int Depth) {
  if (Depth > 64)
    return false;
  C.skipWs();
  if (C.P == C.End)
    return false;
  switch (*C.P) {
  case '{': {
    ++C.P;
    C.skipWs();
    if (C.P != C.End && *C.P == '}') {
      ++C.P;
      return true;
    }
    for (;;) {
      C.skipWs();
      if (!validString(C))
        return false;
      C.skipWs();
      if (C.P == C.End || *C.P != ':')
        return false;
      ++C.P;
      if (!validValue(C, Depth + 1))
        return false;
      C.skipWs();
      if (C.P == C.End)
        return false;
      if (*C.P == ',') {
        ++C.P;
        continue;
      }
      if (*C.P == '}') {
        ++C.P;
        return true;
      }
      return false;
    }
  }
  case '[': {
    ++C.P;
    C.skipWs();
    if (C.P != C.End && *C.P == ']') {
      ++C.P;
      return true;
    }
    for (;;) {
      if (!validValue(C, Depth + 1))
        return false;
      C.skipWs();
      if (C.P == C.End)
        return false;
      if (*C.P == ',') {
        ++C.P;
        continue;
      }
      if (*C.P == ']') {
        ++C.P;
        return true;
      }
      return false;
    }
  }
  case '"':
    return validString(C);
  case 't':
    if (C.End - C.P >= 4 && std::strncmp(C.P, "true", 4) == 0) {
      C.P += 4;
      return true;
    }
    return false;
  case 'f':
    if (C.End - C.P >= 5 && std::strncmp(C.P, "false", 5) == 0) {
      C.P += 5;
      return true;
    }
    return false;
  case 'n':
    if (C.End - C.P >= 4 && std::strncmp(C.P, "null", 4) == 0) {
      C.P += 4;
      return true;
    }
    return false;
  default:
    return validNumber(C);
  }
}

bool validJson(const std::string &S) {
  JsonCursor C{S.data(), S.data() + S.size()};
  if (!validValue(C, 0))
    return false;
  C.skipWs();
  return C.P == C.End;
}

//===----------------------------------------------------------------------===//
// Workloads and config helpers
//===----------------------------------------------------------------------===//

SessionConfig profiledConfig(Mode M) {
  SessionConfig C =
      presets::tsan11rec(StrategyKind::Queue, M, RecordPolicy::full());
  C.Seed0 = 31;
  C.Seed1 = 32;
  C.Env.Seed0 = 33;
  C.Env.Seed1 = 34;
  C.LivenessIntervalMs = 0;
  C.Profile.Enabled = true;
  return C;
}

void pbzipWorkload(Session &S, pbzip::PbzipConfig &PC) {
  PC.Threads = 3;
  PC.BlockSize = 256;
  std::vector<uint8_t> Input;
  for (int I = 0; I != 80; ++I) {
    const std::string Chunk = "pack my box with five dozen liquor jugs " +
                              std::to_string(I % 13) + " ";
    Input.insert(Input.end(), Chunk.begin(), Chunk.end());
  }
  S.env().putFile(PC.InputPath, Input);
}

/// Records \p Body profiled, replays it profiled, and asserts:
///   - the full report JSON is identical across record and replay;
///   - the core JSON additionally matches the offline reconstruction from
///     the recorded demo (the `tsr-demo-dump profile` pipeline).
template <typename SetupFn, typename BodyFn>
void checkProfileIdentity(SetupFn Setup, BodyFn Body, const char *What) {
  Demo D;
  std::string RecordedReport, RecordedCore;
  {
    SessionConfig C = profiledConfig(Mode::Record);
    Session S(C);
    Setup(S);
    RunReport R = S.run(Body);
    ASSERT_EQ(R.Desync, DesyncKind::None) << What << ": " << R.DesyncMessage;
    ASSERT_TRUE(R.Profile.Enabled) << What;
    ASSERT_GT(R.Profile.Core.TotalTicks, 0u) << What;
    D = R.RecordedDemo;
    RecordedReport = profileReportJson(R.Profile);
    RecordedCore = profileCoreJson(R.Profile.Core);
    EXPECT_TRUE(validJson(RecordedReport)) << What;
  }

  // Offline: decode the demo's streams and run the same analysis — this
  // is exactly what `tsr-demo-dump profile <dir>` does.
  {
    const DemoInfo Info = inspectDemo(D);
    EXPECT_TRUE(Info.Problems.empty()) << What;
    const ProfileCore Offline = analyzeProfile(profileInputsFromDemo(Info));
    EXPECT_EQ(RecordedCore, profileCoreJson(Offline))
        << What << ": offline reconstruction diverges from the recording";
  }

  // Replay: the full report (extensions included) must come back
  // bit-identical.
  SessionConfig C = profiledConfig(Mode::Replay);
  C.ReplayDemo = &D;
  Session S(C);
  Setup(S);
  RunReport R = S.run(Body);
  ASSERT_EQ(R.Desync, DesyncKind::None) << What << ": " << R.DesyncMessage;
  EXPECT_EQ(RecordedCore, profileCoreJson(R.Profile.Core))
      << What << ": replay core diverges from the recording";
  EXPECT_EQ(RecordedReport, profileReportJson(R.Profile))
      << What << ": replay full report diverges from the recording";
}

} // namespace

//===----------------------------------------------------------------------===//
// Core analysis unit tests (synthetic schedules)
//===----------------------------------------------------------------------===//

TEST(ProfileCoreAnalysis, SyntheticScheduleSegmentsGapsAndUsage) {
  ProfileInputs In;
  In.Schedule = {0, 0, 1, 1, 0, 2};
  const ProfileCore C = analyzeProfile(In);

  EXPECT_EQ(C.TotalTicks, 6u);
  EXPECT_EQ(C.Threads, 3u);
  EXPECT_EQ(C.ContextSwitches, 3u);
  EXPECT_EQ(C.LongestSegmentTicks, 2u);

  ASSERT_EQ(C.CriticalPath.size(), 4u);
  EXPECT_EQ(C.CriticalPath[0].Thread, 0u);
  EXPECT_EQ(C.CriticalPath[0].Ticks, 2u);
  EXPECT_EQ(C.CriticalPath[0].GapTicks, 0u);
  EXPECT_EQ(C.CriticalPath[0].GapHolder, UINT64_MAX);
  EXPECT_EQ(C.CriticalPath[1].Thread, 1u);
  EXPECT_EQ(C.CriticalPath[1].StartTick, 2u);
  // Thread 0's second segment waited out ticks 2-3, both held by thread 1.
  EXPECT_EQ(C.CriticalPath[2].Thread, 0u);
  EXPECT_EQ(C.CriticalPath[2].StartTick, 4u);
  EXPECT_EQ(C.CriticalPath[2].GapTicks, 2u);
  EXPECT_EQ(C.CriticalPath[2].GapHolder, 1u);
  // Thread 2's first segment has no gap by definition.
  EXPECT_EQ(C.CriticalPath[3].Thread, 2u);
  EXPECT_EQ(C.CriticalPath[3].GapTicks, 0u);

  ASSERT_EQ(C.Contention.size(), 1u);
  EXPECT_EQ(C.Contention[0].Waiter, 0u);
  EXPECT_EQ(C.Contention[0].Blocker, 1u);
  EXPECT_EQ(C.Contention[0].Ticks, 2u);
  EXPECT_EQ(C.Contention[0].Gaps, 1u);

  ASSERT_EQ(C.Usage.size(), 3u);
  EXPECT_EQ(C.Usage[0].RunningTicks, 3u);
  EXPECT_EQ(C.Usage[0].WaitingTicks, 2u);
  EXPECT_EQ(C.Usage[0].AbsentTicks, 1u);
  EXPECT_EQ(C.Usage[0].Segments, 2u);
  EXPECT_EQ(C.Usage[1].RunningTicks, 2u);
  EXPECT_EQ(C.Usage[1].WaitingTicks, 0u);
  EXPECT_EQ(C.Usage[1].AbsentTicks, 4u);
  EXPECT_EQ(C.Usage[2].RunningTicks, 1u);
  EXPECT_EQ(C.Usage[2].FirstTick, 5u);
  EXPECT_EQ(C.Usage[2].AbsentTicks, 5u);

  EXPECT_TRUE(validJson(profileCoreJson(C)));
}

TEST(ProfileCoreAnalysis, GapHolderPrefersLowestTidOnTies) {
  // Thread 2's gap (ticks 1-4) is split evenly between threads 0 and 1.
  ProfileInputs In;
  In.Schedule = {2, 0, 0, 1, 1, 2};
  const ProfileCore C = analyzeProfile(In);
  ASSERT_EQ(C.CriticalPath.size(), 4u);
  const ProfileSegment &S = C.CriticalPath[3];
  EXPECT_EQ(S.Thread, 2u);
  EXPECT_EQ(S.GapTicks, 4u);
  EXPECT_EQ(S.GapHolder, 0u);
  // Both edges exist, two ticks each.
  ASSERT_EQ(C.Contention.size(), 2u);
  EXPECT_EQ(C.Contention[0].Ticks, 2u);
  EXPECT_EQ(C.Contention[1].Ticks, 2u);
}

TEST(ProfileCoreAnalysis, EmptyScheduleYieldsEmptyProfile) {
  const ProfileCore C = analyzeProfile(ProfileInputs{});
  EXPECT_EQ(C.TotalTicks, 0u);
  EXPECT_EQ(C.Threads, 0u);
  EXPECT_TRUE(C.CriticalPath.empty());
  EXPECT_TRUE(validJson(profileCoreJson(C)));
}

TEST(ProfileCoreAnalysis, SyscallTalliesCountErrorsAndKinds) {
  ProfileInputs In;
  In.Schedule = {0};
  In.Syscalls.push_back({3, 10, 0});
  In.Syscalls.push_back({3, -1, 11});
  In.Syscalls.push_back({7, 0, 0});
  const ProfileCore C = analyzeProfile(In);
  EXPECT_EQ(C.SyscallCount, 3u);
  EXPECT_EQ(C.SyscallErrors, 1u);
  ASSERT_EQ(C.SyscallsByKind.size(), 2u);
  EXPECT_EQ(C.SyscallsByKind[0], (std::pair<uint64_t, uint64_t>(3, 2)));
  EXPECT_EQ(C.SyscallsByKind[1], (std::pair<uint64_t, uint64_t>(7, 1)));
}

//===----------------------------------------------------------------------===//
// Record ≡ replay ≡ offline identity
//===----------------------------------------------------------------------===//

TEST(ProfileIdentity, PbzipRecordReplayOfflineIdentity) {
  pbzip::PbzipConfig PC;
  checkProfileIdentity(
      [&](Session &S) { pbzipWorkload(S, PC); },
      [&] {
        pbzip::PbzipResult R = pbzip::compressFile(PC);
        ASSERT_GT(R.Blocks, 1);
      },
      "pbzip");
}

TEST(ProfileIdentity, LitmusSweepRecordReplayOfflineIdentity) {
  for (const litmus::LitmusTest &T : litmus::suite())
    checkProfileIdentity([](Session &) {}, T.Body, T.Name.c_str());
}

//===----------------------------------------------------------------------===//
// Lock-contention ledger and blocking attribution
//===----------------------------------------------------------------------===//

TEST(ProfileLedger, ContendedMutexShowsHoldWaitAndWakerEdges) {
  SessionConfig C = profiledConfig(Mode::Record);
  Session S(C);
  RunReport R = S.run([] {
    Mutex M;
    // Start gate: whether spawned threads overlap at all depends on OS
    // startup timing, so without it a run can serialize the workers and
    // legitimately record zero contention. Releasing all three from a
    // broadcast makes them reacquire the gate mutex simultaneously —
    // blocked mutex waits and releaser waker edges are then structural,
    // not a scheduling accident.
    Mutex GateMu;
    CondVar GateCv;
    int Ready = 0;
    bool Go = false;
    int Shared = 0;
    std::vector<Thread> Workers;
    for (int W = 0; W != 3; ++W)
      Workers.push_back(Thread::spawn([&] {
        GateMu.lock();
        ++Ready;
        // Broadcast, not signal: main and the other workers wait on the
        // same condvar with different predicates, and a signal eaten by a
        // still-gated worker would strand main.
        GateCv.broadcast();
        while (!Go)
          GateCv.wait(GateMu);
        GateMu.unlock();
        for (int I = 0; I != 10; ++I) {
          M.lock();
          ++Shared;
          // Stretch the critical section past the pipelined commit's
          // maximum FCFS bypass burst (DESIGN.md §14.4): a hold longer
          // than one burst always spans a forced handoff to a parked
          // worker, so some waiter observes the lock held on every
          // iteration regardless of commit mode or burst alignment —
          // contention stays structural, not a scheduling accident.
          Atomic<int> Spin(0);
          for (int K = 0; K != 20; ++K)
            Spin.fetchAdd(1);
          Session::current()->work(2000);
          M.unlock();
        }
      }));
    GateMu.lock();
    while (Ready != 3)
      GateCv.wait(GateMu);
    Go = true;
    GateCv.broadcast();
    GateMu.unlock();
    for (Thread &T : Workers)
      T.join();
    ASSERT_EQ(Shared, 30);
  });
  ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;
  ASSERT_TRUE(R.Profile.Enabled);

  // At least the 30 worker acquisitions of M (the gate adds more).
  ASSERT_FALSE(R.Profile.Locks.empty());
  uint64_t Acq = 0;
  for (const ProfileLockStats &L : R.Profile.Locks)
    Acq += L.Acquisitions;
  EXPECT_EQ(Acq, R.Profile.LockAcquisitions);
  EXPECT_GE(R.Profile.LockAcquisitions, 30u);
  EXPECT_GT(R.Profile.LockHoldTicks, 0u);
  // Three threads hammering one mutex must contend under any schedule in
  // which two are ever simultaneously live.
  EXPECT_GT(R.Profile.LockContended, 0u);
  EXPECT_GT(R.Profile.LockWaitTicks, 0u);

  // The blocking breakdown attributes parked mutex ticks, and the waker
  // edges name real threads (lock releasers), not just the engine.
  uint64_t MutexBlocked = 0, MutexEvents = 0;
  for (const ProfileThreadWaits &W : R.Profile.Waits) {
    MutexBlocked +=
        W.BlockedTicks[static_cast<unsigned>(ProfileWaitKind::Mutex)];
    MutexEvents +=
        W.BlockEvents[static_cast<unsigned>(ProfileWaitKind::Mutex)];
  }
  EXPECT_GT(MutexBlocked, 0u);
  EXPECT_GT(MutexEvents, 0u);
  EXPECT_EQ(MutexBlocked, R.Profile.LockWaitTicks);
  bool ThreadWaker = false;
  for (const ProfileBlockEdge &E : R.Profile.BlockedOn)
    if (E.Kind == ProfileWaitKind::Mutex && E.Blocker != UINT64_MAX)
      ThreadWaker = true;
  EXPECT_TRUE(ThreadWaker);

  // Whether a join parks at all depends on whether the target already
  // exited — a genuine race, so no count is asserted. What must always
  // hold: blocked ticks of a kind imply block events of that kind, and
  // the aggregate matches the per-thread tables.
  uint64_t Blocked = 0;
  for (const ProfileThreadWaits &W : R.Profile.Waits)
    for (unsigned K = 0; K != NumProfileWaitKinds; ++K) {
      if (W.BlockEvents[K] == 0)
        EXPECT_EQ(W.BlockedTicks[K], 0u) << "thread " << W.Thread;
      Blocked += W.BlockedTicks[K];
    }
  EXPECT_EQ(Blocked, R.Profile.BlockedTicks);

  EXPECT_TRUE(validJson(profileReportJson(R.Profile)));
}

TEST(ProfileLedger, RegisteredNameResolvesInLockLedger) {
  SessionConfig C = profiledConfig(Mode::Record);
  Session S(C);
  RunReport R = S.run([] {
    Mutex M;
    Session::current()->race().registerName(
        reinterpret_cast<uintptr_t>(&M), sizeof(M), "work-queue-lock");
    Thread T = Thread::spawn([&] {
      for (int I = 0; I != 5; ++I) {
        M.lock();
        Session::current()->work(1000);
        M.unlock();
      }
    });
    for (int I = 0; I != 5; ++I) {
      M.lock();
      Session::current()->work(1000);
      M.unlock();
    }
    T.join();
    // Names resolve when the report is assembled after the run, so the
    // registration must outlive the body.
  });
  ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;
  bool Named = false;
  for (const ProfileLockStats &L : R.Profile.Locks)
    if (L.Name == "work-queue-lock")
      Named = true;
  EXPECT_TRUE(Named) << profileReportJson(R.Profile);
}

TEST(ProfileLedger, DisabledProfilerReportsNothing) {
  SessionConfig C = profiledConfig(Mode::Record);
  C.Profile.Enabled = false;
  Session S(C);
  RunReport R = S.run([] {
    Atomic<int> A(0);
    Thread T = Thread::spawn([&] { A.store(1); });
    T.join();
  });
  EXPECT_FALSE(R.Profile.Enabled);
  EXPECT_EQ(R.Profile.Core.TotalTicks, 0u);
  EXPECT_FALSE(R.Metrics.hasCounter("profile.total_ticks"));
}

TEST(ProfileMetrics, ProfileCountersMatchReport) {
  pbzip::PbzipConfig PC;
  SessionConfig C = profiledConfig(Mode::Record);
  Session S(C);
  pbzipWorkload(S, PC);
  RunReport R = S.run([&] { pbzip::compressFile(PC); });
  ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;
  EXPECT_EQ(R.Metrics.counterOr("profile.total_ticks", 0),
            R.Profile.Core.TotalTicks);
  EXPECT_EQ(R.Metrics.counterOr("profile.segments", 0),
            R.Profile.Core.CriticalPath.size());
  EXPECT_EQ(R.Metrics.counterOr("profile.context_switches", 0),
            R.Profile.Core.ContextSwitches);
  EXPECT_EQ(R.Metrics.counterOr("profile.lock_acquisitions", 0),
            R.Profile.LockAcquisitions);
  EXPECT_EQ(R.Metrics.counterOr("profile.blocked_ticks", 0),
            R.Profile.BlockedTicks);
  EXPECT_EQ(R.Metrics.counterOr("profile.syscalls", 0),
            R.Profile.Core.SyscallCount);
}

//===----------------------------------------------------------------------===//
// Metrics snapshot idempotency (re-entrant fillMetrics)
//===----------------------------------------------------------------------===//

TEST(ProfileMetrics, FillMetricsTwiceIsIdempotent) {
  pbzip::PbzipConfig PC;
  SessionConfig C = profiledConfig(Mode::Record);
  C.Trace.Enabled = true; // Histograms are the double-count hazard.
  Session S(C);
  pbzipWorkload(S, PC);
  RunReport R = S.run([&] { pbzip::compressFile(PC); });
  ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;
  const std::string Once = R.Metrics.toJson();
  ASSERT_FALSE(Once.empty());
  S.fillMetrics(R);
  EXPECT_EQ(Once, R.Metrics.toJson())
      << "re-entrant fillMetrics changed the snapshot";
  S.fillMetrics(R);
  EXPECT_EQ(Once, R.Metrics.toJson());
}

//===----------------------------------------------------------------------===//
// Percentile estimates in SampleStats
//===----------------------------------------------------------------------===//

TEST(ProfileMetrics, SampleStatsJsonCarriesPercentiles) {
  SampleStats St;
  for (int I = 1; I <= 100; ++I)
    St.add(I);
  const std::string Json = St.toJson();
  EXPECT_TRUE(validJson(Json)) << Json;
  EXPECT_NE(Json.find("\"p50\":"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p95\":"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p99\":"), std::string::npos) << Json;
  // p50 duplicates the median; the tail estimates must order sensibly.
  EXPECT_DOUBLE_EQ(St.quantile(0.5), St.median());
  EXPECT_LE(St.quantile(0.5), St.quantile(0.95));
  EXPECT_LE(St.quantile(0.95), St.quantile(0.99));
  EXPECT_LE(St.quantile(0.99), St.max());
}

//===----------------------------------------------------------------------===//
// Telemetry streaming
//===----------------------------------------------------------------------===//

TEST(Telemetry, StreamsWellFormedJsonlWithFinalFrame) {
  const std::string Path = ::testing::TempDir() + "tsr_telemetry_test-" +
                           std::to_string(::getpid()) + ".jsonl";
  pbzip::PbzipConfig PC;
  SessionConfig C = profiledConfig(Mode::Record);
  C.Telemetry.Enabled = true;
  C.Telemetry.EveryTicks = 50;
  C.Telemetry.Path = Path;
  Session S(C);
  pbzipWorkload(S, PC);
  RunReport R = S.run([&] { pbzip::compressFile(PC); });
  ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;

  FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  std::vector<std::string> Lines;
  std::string Line;
  char Buf[8192];
  while (std::fgets(Buf, sizeof(Buf), F)) {
    Line = Buf;
    while (!Line.empty() && Line.back() == '\n')
      Line.pop_back();
    if (!Line.empty())
      Lines.push_back(Line);
  }
  std::fclose(F);
  std::remove(Path.c_str());

  ASSERT_GT(Lines.size(), 1u) << "cadence 50 over a multi-hundred-tick run";
  for (const std::string &L : Lines) {
    EXPECT_TRUE(validJson(L)) << L;
    EXPECT_NE(L.find("\"type\": \"tsr-telemetry\""), std::string::npos);
    EXPECT_NE(L.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(L.find("\"deltas\": {"), std::string::npos);
  }
  // Exactly one final frame, and it is the last line.
  size_t Finals = 0;
  for (const std::string &L : Lines)
    if (L.find("\"final\": true") != std::string::npos)
      ++Finals;
  EXPECT_EQ(Finals, 1u);
  EXPECT_NE(Lines.back().find("\"final\": true"), std::string::npos);

  EXPECT_EQ(R.Metrics.counterOr("telemetry.frames", 0), Lines.size());
  EXPECT_GT(R.Metrics.counterOr("telemetry.bytes", 0), 0u);
}

TEST(Telemetry, DisabledStreamsNothingAndPublishesNoMetrics) {
  pbzip::PbzipConfig PC;
  SessionConfig C = profiledConfig(Mode::Record);
  Session S(C);
  pbzipWorkload(S, PC);
  RunReport R = S.run([&] { pbzip::compressFile(PC); });
  EXPECT_FALSE(R.Metrics.hasCounter("telemetry.frames"));
}

//===----------------------------------------------------------------------===//
// Chrome export layering
//===----------------------------------------------------------------------===//

TEST(ProfileExport, ChromeExportLayersCounterTrackAndFlows) {
  const std::string Path = ::testing::TempDir() + "tsr_profile_chrome-" +
                           std::to_string(::getpid()) + ".json";
  pbzip::PbzipConfig PC;
  SessionConfig C = profiledConfig(Mode::Record);
  C.Trace.Enabled = true;
  C.Trace.ExportChromePath = Path;
  Session S(C);
  pbzipWorkload(S, PC);
  RunReport R = S.run([&] { pbzip::compressFile(PC); });
  ASSERT_EQ(R.Desync, DesyncKind::None) << R.DesyncMessage;

  FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  std::string Json;
  char Buf[8192];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Json.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());

  EXPECT_TRUE(validJson(Json));
  EXPECT_NE(Json.find("\"waiting threads\""), std::string::npos)
      << "profile counter track missing from the layered export";
  EXPECT_NE(Json.find("\"ph\": \"s\""), std::string::npos)
      << "critical-path flow start missing";
  EXPECT_NE(Json.find("\"ph\": \"f\""), std::string::npos)
      << "critical-path flow finish missing";

  // The fragments alone are not a JSON document, but each event is.
  const std::string Fragment = profileChromeEvents(R.Profile.Core);
  ASSERT_FALSE(Fragment.empty());
  EXPECT_TRUE(validJson("[" + Fragment + "]"));
}
