//===-- tests/EnvTest.cpp - Simulated environment unit tests -------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// SimEnv and CostModel are exercised directly with simulated thread ids —
// no scheduler involved.
//
//===----------------------------------------------------------------------===//

#include "env/CostModel.h"
#include "env/FaultPlan.h"
#include "env/SimEnv.h"
#include "env/Syscall.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

using namespace tsr;

namespace {

SimEnv::Options fixedEnv() {
  SimEnv::Options O;
  O.Seed0 = 7;
  O.Seed1 = 9;
  return O;
}

/// An echo peer: replies with the same bytes, xor-flipped.
class EchoPeer final : public Peer {
public:
  void onMessage(PeerApi &Api, uint64_t Conn,
                 const std::vector<uint8_t> &Data) override {
    std::vector<uint8_t> Reply = Data;
    for (uint8_t &B : Reply)
      B ^= 0xFF;
    Api.send(Conn, std::move(Reply));
    ++Messages;
  }
  int Messages = 0;
};

/// A peer that connects to an application port on start.
class DialInPeer final : public Peer {
public:
  explicit DialInPeer(uint16_t Port) : Port(Port) {}
  void onStart(PeerApi &Api) override { Conn = Api.connect(Port); }
  void onConnected(PeerApi &Api, uint64_t C) override {
    Api.send(C, {1, 2, 3});
  }
  uint16_t Port;
  uint64_t Conn = 0;
};

class EnvTest : public ::testing::Test {
protected:
  EnvTest() : Cost(CostModelConfig()), Env(Cost, fixedEnv()) {
    Cost.threadStart(0, InvalidTid);
    Cost.threadStart(1, 0);
  }
  CostModel Cost;
  SimEnv Env;
};

//===----------------------------------------------------------------------===//
// Sockets: lifecycle, errors
//===----------------------------------------------------------------------===//

TEST_F(EnvTest, SocketBindListen) {
  const auto S = Env.sysSocket(0);
  ASSERT_GE(S.Ret, 0);
  const int Fd = static_cast<int>(S.Ret);
  EXPECT_EQ(Env.fdClass(Fd), FdClass::Socket);
  EXPECT_EQ(Env.sysBind(0, Fd, 8080).Ret, 0);
  EXPECT_EQ(Env.sysListen(0, Fd).Ret, 0);
}

TEST_F(EnvTest, BindSamePortTwiceFails) {
  const int A = static_cast<int>(Env.sysSocket(0).Ret);
  const int B = static_cast<int>(Env.sysSocket(0).Ret);
  EXPECT_EQ(Env.sysBind(0, A, 80).Ret, 0);
  Env.sysListen(0, A);
  const auto R = Env.sysBind(0, B, 80);
  EXPECT_EQ(R.Ret, -1);
  EXPECT_EQ(R.Err, VEADDRINUSE);
}

TEST_F(EnvTest, OperationsOnBadFdFail) {
  EXPECT_EQ(Env.sysAccept(0, 99).Err, VEBADF);
  EXPECT_EQ(Env.sysRecv(0, 99, 10).Err, VEBADF);
  EXPECT_EQ(Env.sysSend(0, 99, "x", 1).Err, VEBADF);
  EXPECT_EQ(Env.sysClose(0, 99).Err, VEBADF);
  EXPECT_EQ(Env.sysRead(0, 99, 10).Err, VEBADF);
}

TEST_F(EnvTest, ConnectToUnknownPortRefused) {
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  const auto R = Env.sysConnect(0, Fd, 4242);
  EXPECT_EQ(R.Ret, -1);
  EXPECT_EQ(R.Err, VECONNREFUSED);
}

TEST_F(EnvTest, AcceptBeforeArrivalIsEagain) {
  Env.addPeer("dialin", std::make_unique<DialInPeer>(80));
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysBind(0, Fd, 80);
  Env.sysListen(0, Fd);
  Env.start();
  // The SYN is in flight (latency > 0) and thread 0's clock is at 0.
  EXPECT_EQ(Env.sysAccept(0, Fd).Err, VEAGAIN);
  // After the clock passes the arrival, accept succeeds.
  Cost.waitUntil(0, 10000000);
  EXPECT_GE(Env.sysAccept(0, Fd).Ret, 0);
}

TEST_F(EnvTest, PeerConnectBeforeBindIsQueued) {
  // The peer dials port 80 at startup; the app binds afterwards and must
  // still receive the connection (backlog adoption).
  Env.addPeer("dialin", std::make_unique<DialInPeer>(80));
  Env.start();
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  ASSERT_EQ(Env.sysBind(0, Fd, 80).Ret, 0);
  Env.sysListen(0, Fd);
  Cost.waitUntil(0, 10000000);
  EXPECT_GE(Env.sysAccept(0, Fd).Ret, 0);
}

TEST_F(EnvTest, EchoRoundTrip) {
  auto PeerPtr = std::make_unique<EchoPeer>();
  EchoPeer *Echo = PeerPtr.get();
  Env.addPeer("echo", std::move(PeerPtr), 7777);
  Env.start();
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  ASSERT_EQ(Env.sysConnect(0, Fd, 7777).Ret, 0);
  const uint8_t Msg[3] = {0x01, 0x02, 0x03};
  EXPECT_EQ(Env.sysSend(0, Fd, Msg, 3).Ret, 3);
  EXPECT_EQ(Echo->Messages, 1);
  // Reply is in flight: EAGAIN until the clock advances.
  EXPECT_EQ(Env.sysRecv(0, Fd, 16).Err, VEAGAIN);
  Cost.waitUntil(0, 10000000);
  const auto R = Env.sysRecv(0, Fd, 16);
  ASSERT_EQ(R.Ret, 3);
  EXPECT_EQ(R.OutBuf, (std::vector<uint8_t>{0xFE, 0xFD, 0xFC}));
}

TEST_F(EnvTest, PartialRecvPreservesRemainder) {
  auto PeerPtr = std::make_unique<EchoPeer>();
  Env.addPeer("echo", std::move(PeerPtr), 7777);
  Env.start();
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysConnect(0, Fd, 7777);
  const uint8_t Msg[4] = {1, 2, 3, 4};
  Env.sysSend(0, Fd, Msg, 4);
  Cost.waitUntil(0, 10000000);
  EXPECT_EQ(Env.sysRecv(0, Fd, 3).Ret, 3);
  const auto R = Env.sysRecv(0, Fd, 3);
  EXPECT_EQ(R.Ret, 1); // the tail of the same message
}

TEST_F(EnvTest, PeerCloseYieldsEofAfterDrain) {
  class CloserPeer final : public Peer {
  public:
    void onMessage(PeerApi &Api, uint64_t Conn,
                   const std::vector<uint8_t> &) override {
      Api.send(Conn, {42});
      Api.close(Conn);
    }
  };
  Env.addPeer("closer", std::make_unique<CloserPeer>(), 7000);
  Env.start();
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysConnect(0, Fd, 7000);
  Env.sysSend(0, Fd, "x", 1);
  Cost.waitUntil(0, 10000000);
  EXPECT_EQ(Env.sysRecv(0, Fd, 8).Ret, 1); // pending data first
  EXPECT_EQ(Env.sysRecv(0, Fd, 8).Ret, 0); // then EOF
}

TEST_F(EnvTest, SendOnPeerClosedConnectionFails) {
  class ImmediateCloser final : public Peer {
  public:
    void onConnected(PeerApi &Api, uint64_t Conn) override {
      Api.close(Conn);
    }
  };
  Env.addPeer("closer", std::make_unique<ImmediateCloser>(), 7000);
  Env.start();
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysConnect(0, Fd, 7000);
  const auto R = Env.sysSend(0, Fd, "x", 1);
  EXPECT_EQ(R.Ret, -1);
  EXPECT_EQ(R.Err, VENOTCONN);
}

//===----------------------------------------------------------------------===//
// poll
//===----------------------------------------------------------------------===//

TEST_F(EnvTest, PollTimeoutAdvancesClock) {
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysBind(0, Fd, 80);
  Env.sysListen(0, Fd);
  PollFd P;
  P.Fd = Fd;
  P.Events = PollIn;
  const VTime Before = Cost.localTime(0);
  EXPECT_EQ(Env.sysPoll(0, &P, 1, 50).Ret, 0);
  EXPECT_EQ(Cost.localTime(0), Before + 50000000u);
}

TEST_F(EnvTest, PollAdvancesOnlyToArrival) {
  auto PeerPtr = std::make_unique<EchoPeer>();
  Env.addPeer("echo", std::move(PeerPtr), 7777);
  Env.start();
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysConnect(0, Fd, 7777);
  Env.sysSend(0, Fd, "x", 1);
  PollFd P;
  P.Fd = Fd;
  P.Events = PollIn;
  const auto R = Env.sysPoll(0, &P, 1, 1000);
  EXPECT_EQ(R.Ret, 1);
  EXPECT_TRUE(P.Revents & PollIn);
  // Arrived within a couple of round trips, far below the 1s budget.
  EXPECT_LT(Cost.localTime(0), 5000000u);
}

TEST_F(EnvTest, PollZeroTimeoutNeverAdvances) {
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysBind(0, Fd, 80);
  Env.sysListen(0, Fd);
  PollFd P;
  P.Fd = Fd;
  P.Events = PollIn;
  const VTime Before = Cost.localTime(0);
  EXPECT_EQ(Env.sysPoll(0, &P, 1, 0).Ret, 0);
  EXPECT_EQ(Cost.localTime(0), Before);
}

TEST_F(EnvTest, PollReportsReventsInResultBuffer) {
  auto PeerPtr = std::make_unique<EchoPeer>();
  Env.addPeer("echo", std::move(PeerPtr), 7777);
  Env.start();
  const int Fd = static_cast<int>(Env.sysSocket(0).Ret);
  Env.sysConnect(0, Fd, 7777);
  Env.sysSend(0, Fd, "x", 1);
  Cost.waitUntil(0, 10000000);
  PollFd P;
  P.Fd = Fd;
  P.Events = PollIn | PollOut;
  const auto R = Env.sysPoll(0, &P, 1, 10);
  ASSERT_EQ(R.OutBuf.size(), 2u);
  const short Encoded =
      static_cast<short>(R.OutBuf[0] | (R.OutBuf[1] << 8));
  EXPECT_EQ(Encoded, P.Revents);
  EXPECT_TRUE(P.Revents & PollIn);
  EXPECT_TRUE(P.Revents & PollOut);
}

//===----------------------------------------------------------------------===//
// Pipes and files
//===----------------------------------------------------------------------===//

TEST_F(EnvTest, PipeTransfersWithLatency) {
  int Fds[2];
  ASSERT_EQ(Env.sysPipe(0, Fds).Ret, 0);
  EXPECT_EQ(Env.fdClass(Fds[0]), FdClass::Pipe);
  EXPECT_EQ(Env.sysWrite(0, Fds[1], "hi", 2).Ret, 2);
  // In flight until the reader's clock passes the pipe latency.
  EXPECT_EQ(Env.sysRead(1, Fds[0], 8).Err, VEAGAIN);
  Cost.waitUntil(1, 1000000);
  EXPECT_EQ(Env.sysRead(1, Fds[0], 8).Ret, 2);
}

TEST_F(EnvTest, PipeEofAfterWriteEndCloses) {
  int Fds[2];
  Env.sysPipe(0, Fds);
  Env.sysWrite(0, Fds[1], "a", 1);
  Env.sysClose(0, Fds[1]);
  Cost.waitUntil(0, 1000000);
  EXPECT_EQ(Env.sysRead(0, Fds[0], 8).Ret, 1);
  EXPECT_EQ(Env.sysRead(0, Fds[0], 8).Ret, 0); // EOF
}

TEST_F(EnvTest, WriteToClosedReadEndFails) {
  int Fds[2];
  Env.sysPipe(0, Fds);
  Env.sysClose(0, Fds[0]);
  EXPECT_EQ(Env.sysWrite(0, Fds[1], "a", 1).Err, VENOTCONN);
}

TEST_F(EnvTest, FileRoundTrip) {
  const auto O = Env.sysOpen(0, "/data/f.txt", /*Create=*/true);
  ASSERT_GE(O.Ret, 0);
  const int Fd = static_cast<int>(O.Ret);
  EXPECT_EQ(Env.fdClass(Fd), FdClass::File);
  EXPECT_EQ(Env.sysWrite(0, Fd, "abcdef", 6).Ret, 6);
  Env.sysClose(0, Fd);
  const int Rd = static_cast<int>(Env.sysOpen(0, "/data/f.txt", false).Ret);
  auto R = Env.sysRead(0, Rd, 4);
  EXPECT_EQ(R.Ret, 4);
  EXPECT_EQ(std::string(R.OutBuf.begin(), R.OutBuf.end()), "abcd");
  R = Env.sysRead(0, Rd, 4);
  EXPECT_EQ(R.Ret, 2); // offset advanced
  EXPECT_EQ(Env.sysRead(0, Rd, 4).Ret, 0);
}

TEST_F(EnvTest, OpenMissingFileFails) {
  const auto R = Env.sysOpen(0, "/no/such", false);
  EXPECT_EQ(R.Ret, -1);
  EXPECT_EQ(R.Err, VENOENT);
}

TEST_F(EnvTest, WriteToReadOnlyFileFails) {
  Env.putFile("/data/ro", {1, 2});
  const int Fd = static_cast<int>(Env.sysOpen(0, "/data/ro", false).Ret);
  EXPECT_EQ(Env.sysWrite(0, Fd, "x", 1).Err, VEINVAL);
}

TEST_F(EnvTest, PutFileSeedsWorld) {
  Env.putFile("/data/in", {9, 8, 7});
  const int Fd = static_cast<int>(Env.sysOpen(0, "/data/in", false).Ret);
  const auto R = Env.sysRead(0, Fd, 10);
  EXPECT_EQ(R.OutBuf, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(Env.fileContents("/data/in").size(), 3u);
}

//===----------------------------------------------------------------------===//
// Devices, clock, alloc hints, sleep
//===----------------------------------------------------------------------===//

TEST_F(EnvTest, DevicePathsOpenAsDevices) {
  const int Fd = static_cast<int>(Env.sysOpen(0, "/dev/display", false).Ret);
  EXPECT_EQ(Env.fdClass(Fd), FdClass::Device);
  const auto R = Env.sysIoctl(0, Fd, IoctlReq::DisplayVsync);
  EXPECT_EQ(R.Ret, 0);
  EXPECT_EQ(R.OutBuf.size(), 8u);
}

TEST_F(EnvTest, IoctlOnNonDeviceFails) {
  Env.putFile("/data/x", {});
  const int Fd = static_cast<int>(Env.sysOpen(0, "/data/x", false).Ret);
  EXPECT_EQ(Env.sysIoctl(0, Fd, IoctlReq::DisplayVsync).Err, VEBADF);
}

TEST_F(EnvTest, IoctlJitterVariesAcrossSeeds) {
  CostModel C2((CostModelConfig()));
  C2.threadStart(0, InvalidTid);
  SimEnv::Options O = fixedEnv();
  O.Seed0 = 1234;
  SimEnv Other(C2, O);
  const int A = static_cast<int>(Env.sysOpen(0, "/dev/d", false).Ret);
  const int B = static_cast<int>(Other.sysOpen(0, "/dev/d", false).Ret);
  const auto RA = Env.sysIoctl(0, A, IoctlReq::DisplayFrameDone);
  const auto RB = Other.sysIoctl(0, B, IoctlReq::DisplayFrameDone);
  EXPECT_NE(RA.OutBuf, RB.OutBuf);
}

TEST_F(EnvTest, ClockIsMonotoneAcrossThreads) {
  uint64_t Prev = 0;
  for (int I = 0; I != 50; ++I) {
    const auto R = Env.sysClockGettime(I % 2);
    uint64_t V = 0;
    for (int B = 7; B >= 0; --B)
      V = (V << 8) | R.OutBuf[B];
    EXPECT_GT(V, Prev);
    Prev = V;
  }
}

TEST_F(EnvTest, SleepAdvancesCallerOnly) {
  Env.sysSleepMs(0, 25);
  EXPECT_GE(Cost.localTime(0), 25000000u);
  EXPECT_EQ(Cost.localTime(1), 0u);
}

TEST_F(EnvTest, AllocHintsAreDistinctAndJittered) {
  const uint64_t A = static_cast<uint64_t>(Env.sysAllocHint(0).Ret);
  const uint64_t B = static_cast<uint64_t>(Env.sysAllocHint(0).Ret);
  EXPECT_NE(A, B);
  EXPECT_GT(A, 0x7f0000000000ull);
}

//===----------------------------------------------------------------------===//
// CostModel
//===----------------------------------------------------------------------===//

TEST(CostModel, WorkScalesByInstrFactor) {
  CostModelConfig Cfg;
  Cfg.InstrFactor = 6.0;
  CostModel C(Cfg);
  C.threadStart(0, InvalidTid);
  C.work(0, 1000);
  EXPECT_EQ(C.localTime(0), 6000u);
}

TEST(CostModel, WorkIsParallelByDefault) {
  CostModel C((CostModelConfig()));
  C.threadStart(0, InvalidTid);
  C.threadStart(1, InvalidTid);
  C.work(0, 1000);
  C.work(1, 1000);
  EXPECT_EQ(C.makespan(), 1000u);
}

TEST(CostModel, SequentializeAllSerializesWork) {
  CostModelConfig Cfg;
  Cfg.SequentializeAll = true;
  CostModel C(Cfg);
  C.threadStart(0, InvalidTid);
  C.threadStart(1, InvalidTid);
  C.work(0, 1000);
  C.work(1, 1000);
  EXPECT_EQ(C.makespan(), 2000u); // rr: one timeline
}

TEST(CostModel, ChainVisibleOpsSerializesOpsNotWork) {
  CostModelConfig Cfg;
  Cfg.ChainVisibleOps = true;
  Cfg.VisibleOpCost = 100;
  CostModel C(Cfg);
  C.threadStart(0, InvalidTid);
  C.threadStart(1, InvalidTid);
  C.visibleOp(0);
  C.visibleOp(1);
  // Ops queue on the chain...
  EXPECT_EQ(C.localTime(1), 200u);
  // ...but invisible work still overlaps.
  C.work(0, 5000);
  C.work(1, 5000);
  EXPECT_LT(C.makespan(), 10000u);
}

TEST(CostModel, AheadThreadDoesNotDragChain) {
  CostModelConfig Cfg;
  Cfg.ChainVisibleOps = true;
  Cfg.VisibleOpCost = 100;
  CostModel C(Cfg);
  C.threadStart(0, InvalidTid);
  C.threadStart(1, InvalidTid);
  C.waitUntil(0, 1000000); // an idle poller far in the future
  C.visibleOp(0);
  C.visibleOp(1);
  // Thread 1 must not be pushed to the poller's clock.
  EXPECT_LT(C.localTime(1), 1000u);
}

TEST(CostModel, ThreadStartInheritsParentClock) {
  CostModel C((CostModelConfig()));
  C.threadStart(0, InvalidTid);
  C.work(0, 777);
  C.threadStart(1, 0);
  EXPECT_EQ(C.localTime(1), 777u);
}

TEST(CostModel, SyncAcquirePropagatesReleaseTime) {
  CostModel C((CostModelConfig()));
  C.threadStart(0, InvalidTid);
  C.threadStart(1, InvalidTid);
  C.work(0, 5000);
  const VTime Rel = C.syncRelease(0);
  C.syncAcquire(1, Rel);
  EXPECT_EQ(C.localTime(1), 5000u);
  // Acquiring an older timestamp never rewinds.
  C.syncAcquire(1, 100);
  EXPECT_EQ(C.localTime(1), 5000u);
}

TEST(CostModel, EagerStallChargesSegmentToEveryone) {
  CostModelConfig Cfg;
  Cfg.ChainVisibleOps = true;
  Cfg.EagerStallFixedNs = 0;
  CostModel C(Cfg);
  C.threadStart(0, InvalidTid);
  C.threadStart(1, InvalidTid);
  C.work(0, 40000); // thread 0 deep in an invisible segment
  C.markEagerStall(0);
  const VTime T1Before = C.localTime(1);
  C.visibleOp(0); // the stall resolves at thread 0's next visible op
  EXPECT_EQ(C.eagerStallCount(), 1u);
  EXPECT_GE(C.eagerChargedNs(), 40000u);
  EXPECT_GE(C.localTime(1), T1Before + 40000); // wall-dead for everyone
}

TEST(CostModel, EagerStallChargeIsCapped) {
  CostModelConfig Cfg;
  Cfg.ChainVisibleOps = true;
  Cfg.EagerStallCapNs = 1000;
  Cfg.EagerStallFixedNs = 0;
  CostModel C(Cfg);
  C.threadStart(0, InvalidTid);
  C.work(0, 100000000);
  C.markEagerStall(0);
  C.visibleOp(0);
  EXPECT_LE(C.eagerChargedNs(), 1000u);
}

TEST(CostModel, BlockingOpCostAppliesWhenConfigured) {
  CostModelConfig Cfg;
  Cfg.BlockingOpCost = 6000;
  CostModel C(Cfg);
  C.threadStart(0, InvalidTid);
  C.blockingOp(0);
  EXPECT_EQ(C.localTime(0), 6000u);
  CostModel Zero((CostModelConfig()));
  Zero.threadStart(0, InvalidTid);
  Zero.blockingOp(0);
  EXPECT_EQ(Zero.localTime(0), 0u);
}

// work() runs outside any critical section, so it meets the eager-stall
// charge that a visible op adds to every clock. Neither may lose the
// other's update: each clock must end exactly where a sequential run puts
// it.
TEST(CostModel, ConcurrentWorkAndEagerChargeLoseNoUpdate) {
  constexpr Tid Workers = 4;
  constexpr int Ops = 20000;
  constexpr VTime WorkNs = 7;
  CostModelConfig Cfg;
  Cfg.ChainVisibleOps = true;
  Cfg.VisibleOpCost = 100;
  Cfg.EagerStallFixedNs = 3;
  // Thread 0 issues the visible ops; its clock never depends on the
  // workers', so a sequential model of thread 0 alone gives the charges.
  const auto Designated = [](CostModel &C) {
    for (int I = 0; I != Ops; ++I) {
      C.work(0, 50);
      C.markEagerStall(0);
      C.visibleOp(0);
    }
  };
  CostModel Reference(Cfg);
  Reference.threadStart(0, InvalidTid);
  Designated(Reference);
  ASSERT_EQ(Reference.eagerStallCount(), static_cast<uint64_t>(Ops));

  CostModel C(Cfg);
  for (Tid T = 0; T <= Workers; ++T)
    C.threadStart(T, InvalidTid);
  std::vector<std::thread> Threads;
  for (Tid T = 1; T <= Workers; ++T)
    Threads.emplace_back([&C, T] {
      for (int I = 0; I != Ops; ++I)
        C.work(T, WorkNs);
    });
  Designated(C);
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(C.eagerStallCount(), Reference.eagerStallCount());
  EXPECT_EQ(C.eagerChargedNs(), Reference.eagerChargedNs());
  EXPECT_EQ(C.localTime(0), Reference.localTime(0));
  for (Tid T = 1; T <= Workers; ++T)
    EXPECT_EQ(C.localTime(T), Ops * WorkNs + Reference.eagerChargedNs())
        << "worker " << T;
}

// Starting a thread may allocate a new slot chunk while other threads'
// work() and the watchdog's makespan() index the existing slots: no slot
// may move or lose its clock.
TEST(CostModel, SlotsSurviveGrowthWhileWorking) {
  constexpr Tid Workers = 4;
  constexpr Tid Started = 300; // several chunks past the first
  constexpr int Ops = 20000;
  CostModel C((CostModelConfig()));
  for (Tid T = 0; T != Workers; ++T)
    C.threadStart(T, InvalidTid);
  std::vector<std::thread> Threads;
  for (Tid T = 0; T != Workers; ++T)
    Threads.emplace_back([&C, T] {
      for (int I = 0; I != Ops; ++I)
        C.work(T, 1);
    });
  VTime Seen = 0;
  for (Tid T = Workers; T != Started; ++T) {
    C.threadStart(T, InvalidTid);
    Seen = std::max(Seen, C.makespan());
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_LE(Seen, static_cast<VTime>(Ops));
  for (Tid T = 0; T != Workers; ++T)
    EXPECT_EQ(C.localTime(T), static_cast<VTime>(Ops)) << "worker " << T;
  for (Tid T = Workers; T != Started; ++T)
    EXPECT_EQ(C.localTime(T), 0u) << "started " << T;
  EXPECT_EQ(C.makespan(), static_cast<VTime>(Ops));
}

//===----------------------------------------------------------------------===//
// RecordPolicy
//===----------------------------------------------------------------------===//

TEST(RecordPolicy, NoneRecordsNothing) {
  const RecordPolicy P = RecordPolicy::none();
  for (unsigned K = 0; K != static_cast<unsigned>(SyscallKind::NumKinds);
       ++K)
    for (FdClass C : {FdClass::None, FdClass::File, FdClass::Socket,
                      FdClass::Pipe, FdClass::Device})
      EXPECT_FALSE(P.shouldRecord(static_cast<SyscallKind>(K), C));
}

TEST(RecordPolicy, FullRecordsEverything) {
  const RecordPolicy P = RecordPolicy::full();
  EXPECT_TRUE(P.shouldRecord(SyscallKind::Read, FdClass::File));
  EXPECT_TRUE(P.shouldRecord(SyscallKind::Ioctl, FdClass::Device));
  EXPECT_TRUE(P.shouldRecord(SyscallKind::AllocHint, FdClass::None));
}

TEST(RecordPolicy, HttpdRefinesFileIo) {
  const RecordPolicy P = RecordPolicy::httpd();
  // The paper's fd-class refinement (§4.4): sockets and pipes yes,
  // regular files no.
  EXPECT_TRUE(P.shouldRecord(SyscallKind::Read, FdClass::Socket));
  EXPECT_TRUE(P.shouldRecord(SyscallKind::Read, FdClass::Pipe));
  EXPECT_FALSE(P.shouldRecord(SyscallKind::Read, FdClass::File));
  EXPECT_TRUE(P.shouldRecord(SyscallKind::ClockGettime, FdClass::None));
  EXPECT_FALSE(P.shouldRecord(SyscallKind::AllocHint, FdClass::None));
}

TEST(RecordPolicy, GameIgnoresIoctl) {
  EXPECT_TRUE(
      RecordPolicy::httpd().shouldRecord(SyscallKind::Recv, FdClass::Socket));
  EXPECT_FALSE(
      RecordPolicy::game().shouldRecord(SyscallKind::Ioctl, FdClass::Device));
  EXPECT_TRUE(
      RecordPolicy::game().shouldRecord(SyscallKind::Recv, FdClass::Socket));
}

TEST(RecordPolicy, HashDistinguishesPolicies) {
  EXPECT_NE(RecordPolicy::none().hash(), RecordPolicy::full().hash());
  EXPECT_NE(RecordPolicy::httpd().hash(), RecordPolicy::game().hash());
  EXPECT_EQ(RecordPolicy::httpd().hash(), RecordPolicy::httpd().hash());
}

TEST(RecordPolicy, EnableDisableRoundTrip) {
  RecordPolicy P = RecordPolicy::none();
  P.enable(SyscallKind::Recv);
  EXPECT_TRUE(P.shouldRecord(SyscallKind::Recv, FdClass::Socket));
  P.disable(SyscallKind::Recv);
  EXPECT_FALSE(P.shouldRecord(SyscallKind::Recv, FdClass::Socket));
}

TEST(Syscall, KindNamesAreStable) {
  EXPECT_STREQ(syscallKindName(SyscallKind::ClockGettime),
               "clock_gettime");
  EXPECT_STREQ(syscallKindName(SyscallKind::Recv), "recv");
  EXPECT_STREQ(syscallKindName(SyscallKind::AllocHint), "alloc_hint");
}

//===----------------------------------------------------------------------===//
// FaultPlan::parse — the env-string front end to the builder API
//===----------------------------------------------------------------------===//

TEST(FaultPlanParse, FullSpecRoundTrip) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse(
      "shortreads=0.1; shortwrites=0.25; drop=0.01; dup=1;"
      "fail:recv@socket:p=0.05,errno=ECONNRESET;"
      "nth:read@pipe:n=3,count=2,errno=EINTR;"
      "nth:accept:n=1,errno=EAGAIN",
      P, Error))
      << Error;
  EXPECT_TRUE(P.active());
  EXPECT_DOUBLE_EQ(P.shortReadProbability(), 0.1);
  EXPECT_DOUBLE_EQ(P.shortWriteProbability(), 0.25);
  EXPECT_DOUBLE_EQ(P.dropProbability(), 0.01);
  EXPECT_DOUBLE_EQ(P.duplicateProbability(), 1.0);
  ASSERT_EQ(P.errnoRules().size(), 1u);
  EXPECT_EQ(P.errnoRules()[0].Kind, SyscallKind::Recv);
  EXPECT_EQ(P.errnoRules()[0].Class, FdClass::Socket);
  EXPECT_FALSE(P.errnoRules()[0].AnyClass);
  EXPECT_EQ(P.errnoRules()[0].Err, VECONNRESET);
  EXPECT_DOUBLE_EQ(P.errnoRules()[0].Probability, 0.05);
  ASSERT_EQ(P.scriptedRules().size(), 2u);
  EXPECT_EQ(P.scriptedRules()[0].Kind, SyscallKind::Read);
  EXPECT_EQ(P.scriptedRules()[0].Class, FdClass::Pipe);
  EXPECT_EQ(P.scriptedRules()[0].Nth, 3u);
  EXPECT_EQ(P.scriptedRules()[0].Count, 2u);
  EXPECT_EQ(P.scriptedRules()[0].Err, VEINTR);
  EXPECT_EQ(P.scriptedRules()[1].Kind, SyscallKind::Accept);
  EXPECT_TRUE(P.scriptedRules()[1].AnyClass);
  EXPECT_EQ(P.scriptedRules()[1].Count, 1u);
  EXPECT_EQ(P.scriptedRules()[1].Err, VEAGAIN);
}

TEST(FaultPlanParse, EmptySpecIsInactive) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse("", P, Error));
  EXPECT_FALSE(P.active());
  ASSERT_TRUE(FaultPlan::parse(" ; ;", P, Error));
  EXPECT_FALSE(P.active());
}

TEST(FaultPlanParse, ParsedPlanMatchesBuilderHash) {
  FaultPlan Built = FaultPlan::none()
                        .shortReads(0.1)
                        .failWithOn(SyscallKind::Recv, FdClass::Socket,
                                    VECONNRESET, 0.05);
  FaultPlan Parsed;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse(
      "shortreads=0.1;fail:recv@socket:p=0.05,errno=ECONNRESET", Parsed,
      Error))
      << Error;
  EXPECT_EQ(Parsed.hash(), Built.hash());
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const char *Bad[] = {
      "shortreads",                          // knob without value
      "shortreads=",                         // empty probability
      "shortreads=1.5",                      // probability above 1
      "shortreads=-0.1",                     // probability below 0
      "shortreads=abc",                      // not a number
      "shortreads=0.1;shortreads=0.2",       // duplicate knob
      "turbo=0.5",                           // unknown knob
      "fail:frobnicate:p=0.5,errno=EAGAIN",  // unknown syscall kind
      "fail:recv@floppy:p=0.5,errno=EAGAIN", // unknown fd class
      "fail:recv:p=0.5,errno=EWOULDBLOCK",   // unknown errno name
      "fail:recv:p=0.5",                     // missing errno
      "fail:recv:errno=EAGAIN",              // missing p
      "fail:recv:p=0.5,errno=EAGAIN,x=1",    // unknown key
      "fail:recv:p=0.5,p=0.5,errno=EAGAIN",  // duplicate key
      "fail:recv",                           // missing key list
      "nth:recv:count=2,errno=EAGAIN",       // missing n
      "nth:recv:n=0,errno=EAGAIN",           // n is 1-based
      "nth:recv:n=2,count=0,errno=EAGAIN",   // empty storm
      "nth:recv:n=banana,errno=EAGAIN",      // malformed number
      // 2^64: strtoull saturates with ERANGE rather than failing, so an
      // unchecked errno would silently accept this as ULLONG_MAX.
      "nth:recv:n=18446744073709551616,errno=EAGAIN",
      "nth:recv:n=2,count=99999999999999999999,errno=EAGAIN", // count overflow
      // strtoull itself skips whitespace and accepts a sign; neither is a
      // valid count here.
      "nth:recv:n= 2,errno=EAGAIN",  // embedded whitespace
      "nth:recv:n=+2,errno=EAGAIN",  // explicit sign
      "nth:recv:n=-2,errno=EAGAIN",  // negative wraps without ERANGE
      "gibberish",                           // no structure at all
  };
  for (const char *Spec : Bad) {
    FaultPlan P;
    std::string Error;
    EXPECT_FALSE(FaultPlan::parse(Spec, P, Error))
        << "accepted bad spec: " << Spec;
    EXPECT_NE(Error.find("fault plan"), std::string::npos) << Spec;
    EXPECT_FALSE(P.active()) << "Out mutated by failed parse: " << Spec;
  }
}

} // namespace
