//===-- tests/SchedTest.cpp - Scheduler and strategy tests ----------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Strategy units run against a mock thread table; scheduler protocol
// behaviours run through real sessions.
//
//===----------------------------------------------------------------------===//

#include "apps/litmus/Litmus.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/SessionPool.h"
#include "runtime/Tsr.h"
#include "sched/Strategy.h"
#include "support/Demo.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

using namespace tsr;

namespace {

//===----------------------------------------------------------------------===//
// Strategy units
//===----------------------------------------------------------------------===//

/// Mock thread table for driving strategies directly.
class MockThreads final : public ThreadView {
public:
  explicit MockThreads(std::vector<bool> Enabled)
      : Enabled(std::move(Enabled)) {}

  bool isEnabled(Tid T) const override {
    return T < Enabled.size() && Enabled[T];
  }
  bool isFinished(Tid) const override { return false; }
  Tid threadCount() const override {
    return static_cast<Tid>(Enabled.size());
  }

  std::vector<bool> Enabled;
};

TEST(Strategy, RandomPicksOnlyEnabledThreads) {
  auto S = makeStrategy(StrategyKind::Random);
  MockThreads Threads({true, false, true, false, true});
  Prng Rng(1, 2);
  for (int I = 0; I != 200; ++I) {
    const Tid T = S->pickNext(Threads, Rng);
    ASSERT_TRUE(T == 0 || T == 2 || T == 4) << "picked disabled " << T;
  }
}

TEST(Strategy, RandomEventuallyPicksEveryEnabledThread) {
  auto S = makeStrategy(StrategyKind::Random);
  MockThreads Threads({true, true, true});
  Prng Rng(3, 4);
  std::set<Tid> Seen;
  for (int I = 0; I != 100; ++I)
    Seen.insert(S->pickNext(Threads, Rng));
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Strategy, RandomWithNoEnabledReturnsInvalid) {
  auto S = makeStrategy(StrategyKind::Random);
  MockThreads Threads({false, false});
  Prng Rng(1, 2);
  EXPECT_EQ(S->pickNext(Threads, Rng), InvalidTid);
}

TEST(Strategy, QueueIsFirstComeFirstServed) {
  auto S = makeStrategy(StrategyKind::Queue);
  MockThreads Threads({true, true, true});
  Prng Rng(1, 2);
  S->onArrive(2);
  S->onArrive(0);
  S->onArrive(1);
  EXPECT_EQ(S->pickNext(Threads, Rng), 2u);
  EXPECT_EQ(S->pickNext(Threads, Rng), 0u);
  EXPECT_EQ(S->pickNext(Threads, Rng), 1u);
  EXPECT_EQ(S->pickNext(Threads, Rng), AnyTid); // empty queue
}

TEST(Strategy, QueueSkipsDisabledWithoutLosingOrder) {
  auto S = makeStrategy(StrategyKind::Queue);
  MockThreads Threads({true, false, true});
  Prng Rng(1, 2);
  S->onArrive(1); // disabled: must keep its slot
  S->onArrive(0);
  EXPECT_EQ(S->pickNext(Threads, Rng), 0u);
  Threads.Enabled[1] = true; // re-enabled: still first in line
  S->onArrive(2);
  EXPECT_EQ(S->pickNext(Threads, Rng), 1u);
  EXPECT_EQ(S->pickNext(Threads, Rng), 2u);
}

TEST(Strategy, QueueIgnoresDuplicateArrivals) {
  auto S = makeStrategy(StrategyKind::Queue);
  MockThreads Threads({true, true});
  Prng Rng(1, 2);
  S->onArrive(0);
  S->onArrive(0);
  S->onArrive(1);
  EXPECT_EQ(S->pickNext(Threads, Rng), 0u);
  EXPECT_EQ(S->pickNext(Threads, Rng), 1u);
  EXPECT_EQ(S->pickNext(Threads, Rng), AnyTid);
}

TEST(Strategy, QueueOnDesignatedRemovesFromQueue) {
  auto S = makeStrategy(StrategyKind::Queue);
  MockThreads Threads({true, true});
  Prng Rng(1, 2);
  S->onArrive(0);
  S->onArrive(1);
  S->onDesignated(0); // granted outside pickNext (AnyTid path)
  EXPECT_EQ(S->pickNext(Threads, Rng), 1u);
}

TEST(Strategy, RoundRobinCyclesEnabledThreads) {
  auto S = makeStrategy(StrategyKind::RoundRobin);
  MockThreads Threads({true, true, false, true});
  Prng Rng(1, 2);
  std::vector<Tid> Picks;
  for (int I = 0; I != 6; ++I)
    Picks.push_back(S->pickNext(Threads, Rng));
  EXPECT_EQ(Picks, (std::vector<Tid>{1, 3, 0, 1, 3, 0}));
}

TEST(Strategy, PctPrefersHighestPriorityUntilDemoted) {
  StrategyParams Params;
  Params.PctChangeProb = 1.0; // demote on every tick
  auto S = makeStrategy(StrategyKind::Pct, Params);
  MockThreads Threads({true, true, true});
  Prng Rng(5, 6);
  for (Tid T = 0; T != 3; ++T)
    S->onThreadNew(T, Rng);
  const Tid First = S->pickNext(Threads, Rng);
  // Without a demotion the pick is stable.
  EXPECT_EQ(S->pickNext(Threads, Rng), First);
  // Demote the runner: the next pick must differ.
  S->onTick(0, First, Rng);
  const Tid Second = S->pickNext(Threads, Rng);
  EXPECT_NE(Second, First);
  // Demote again: the third thread surfaces.
  S->onTick(1, Second, Rng);
  const Tid Third = S->pickNext(Threads, Rng);
  EXPECT_NE(Third, First);
  EXPECT_NE(Third, Second);
  // After all demotions, ordering among demoted threads is
  // least-recently-demoted last.
  S->onTick(2, Third, Rng);
  EXPECT_EQ(S->pickNext(Threads, Rng), First);
}

TEST(Strategy, PickWaiterDefaultIsFifoRandomDraws) {
  Prng Rng(1, 2);
  const std::vector<Tid> Waiters = {5, 6, 7};
  auto Queue = makeStrategy(StrategyKind::Queue);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(Queue->pickWaiter(Waiters, Rng), 0u);
  auto Random = makeStrategy(StrategyKind::Random);
  std::set<size_t> Seen;
  for (int I = 0; I != 100; ++I)
    Seen.insert(Random->pickWaiter(Waiters, Rng));
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(Strategy, NamesRoundTrip) {
  EXPECT_STREQ(strategyName(StrategyKind::Random), "random");
  EXPECT_STREQ(strategyName(StrategyKind::Queue), "queue");
  EXPECT_STREQ(strategyName(StrategyKind::RoundRobin), "round-robin");
  EXPECT_STREQ(strategyName(StrategyKind::Pct), "pct");
}

//===----------------------------------------------------------------------===//
// Scheduler protocol through sessions
//===----------------------------------------------------------------------===//

SessionConfig fixedSeeds(SessionConfig C, uint64_t Salt = 0) {
  C.Seed0 = 501 + Salt;
  C.Seed1 = 601 + Salt;
  C.Env.Seed0 = 701 + Salt;
  C.Env.Seed1 = 801 + Salt;
  return C;
}

TEST(SchedProtocol, EveryVisibleOpIsOneTick) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  C.LivenessIntervalMs = 0;
  Session S(C);
  RunReport R = S.run([] {
    Atomic<int> A(0);
    for (int I = 0; I != 10; ++I)
      A.store(I, std::memory_order_relaxed);
  });
  // 10 stores + main's thread-delete = 11 ticks exactly.
  EXPECT_EQ(R.Sched.Ticks, 11u);
}

TEST(SchedProtocol, ThreadLifecycleTicks) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  C.LivenessIntervalMs = 0;
  Session S(C);
  RunReport R = S.run([] {
    Thread T = Thread::spawn([] {});
    T.join();
  });
  // spawn + child delete + join + main delete = 4 ticks (join may take
  // one extra section if it blocked first).
  EXPECT_GE(R.Sched.Ticks, 4u);
  EXPECT_LE(R.Sched.Ticks, 5u);
}

TEST(SchedProtocol, JoinFinishedThreadDoesNotBlock) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  bool Ran = false;
  S.run([&] {
    Thread T = Thread::spawn([&] { Ran = true; });
    // Let the child finish first under FCFS by doing some visible ops.
    Atomic<int> A(0);
    for (int I = 0; I != 20; ++I)
      A.fetchAdd(1);
    T.join();
  });
  EXPECT_TRUE(Ran);
}

TEST(SchedProtocol, ManyThreadsAllComplete) {
  for (StrategyKind K : {StrategyKind::Random, StrategyKind::Queue,
                         StrategyKind::RoundRobin, StrategyKind::Pct}) {
    SessionConfig C = fixedSeeds(presets::tsan11rec(K), 17);
    Session S(C);
    int Sum = 0;
    S.run([&] {
      Atomic<int> Total(0);
      std::vector<Thread> Threads;
      for (int I = 0; I != 12; ++I)
        Threads.push_back(
            Thread::spawn([&, I] { Total.fetchAdd(I + 1); }));
      for (Thread &T : Threads)
        T.join();
      Sum = Total.load();
    });
    EXPECT_EQ(Sum, 78) << strategyName(K);
  }
}

TEST(SchedProtocol, MutexBlocksUntilUnlock) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  std::vector<int> Order;
  S.run([&] {
    Mutex M;
    Atomic<int> HolderReady(0);
    M.lock();
    Thread T = Thread::spawn([&] {
      HolderReady.store(1);
      M.lock(); // must block until main unlocks
      Order.push_back(2);
      M.unlock();
    });
    while (HolderReady.load() == 0) {
    }
    // Give the contender time to hit the lock and disable itself.
    for (int I = 0; I != 5; ++I)
      (void)HolderReady.load();
    Order.push_back(1);
    M.unlock();
    T.join();
  });
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], 1);
  EXPECT_EQ(Order[1], 2);
}

TEST(SchedProtocol, TryLockNeverBlocks) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  bool FirstTry = false, SecondTry = true;
  S.run([&] {
    Mutex M;
    FirstTry = M.tryLock();
    SecondTry = M.tryLock(); // held by ourselves: must fail, not block
    if (FirstTry)
      M.unlock();
  });
  EXPECT_TRUE(FirstTry);
  EXPECT_FALSE(SecondTry);
}

TEST(SchedProtocol, CondBroadcastWakesAllWaiters) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  int Woken = 0;
  S.run([&] {
    Mutex M;
    CondVar Cv;
    Var<int> Go(0);
    Atomic<int> Waiting(0);
    std::vector<Thread> Threads;
    for (int I = 0; I != 4; ++I)
      Threads.push_back(Thread::spawn([&] {
        UniqueLock L(M);
        Waiting.fetchAdd(1);
        Cv.wait(M, [&] { return Go.get() == 1; });
        ++Woken;
      }));
    while (Waiting.load() != 4) {
    }
    {
      UniqueLock L(M);
      Go.set(1);
      Cv.broadcast();
    }
    for (Thread &T : Threads)
      T.join();
  });
  EXPECT_EQ(Woken, 4);
}

TEST(SchedProtocol, CondSignalWakesExactlyOne) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  int FirstBatch = 0;
  S.run([&] {
    Mutex M;
    CondVar Cv;
    Var<int> Tokens(0);
    Atomic<int> Waiting(0);
    Atomic<int> Consumed(0);
    std::vector<Thread> Threads;
    for (int I = 0; I != 3; ++I)
      Threads.push_back(Thread::spawn([&] {
        UniqueLock L(M);
        Waiting.fetchAdd(1);
        Cv.wait(M, [&] { return Tokens.get() > 0; });
        Tokens.set(Tokens.get() - 1);
        Consumed.fetchAdd(1);
      }));
    while (Waiting.load() != 3) {
    }
    {
      UniqueLock L(M);
      Tokens.set(1);
      Cv.signal();
    }
    while (Consumed.load() != 1) {
    }
    FirstBatch = Consumed.load();
    // Release the rest.
    {
      UniqueLock L(M);
      Tokens.set(2);
      Cv.broadcast();
    }
    for (Thread &T : Threads)
      T.join();
  });
  EXPECT_EQ(FirstBatch, 1);
}

TEST(SchedProtocol, TimedCondWaitTimesOutWithoutSignal) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  bool Signaled = true;
  S.run([&] {
    Mutex M;
    CondVar Cv;
    UniqueLock L(M);
    // Nobody will ever signal: the timed waiter stays enabled (§3.2) and
    // resumes via the timeout path.
    Signaled = Cv.waitFor(M, 50);
  });
  EXPECT_FALSE(Signaled);
}

TEST(SchedProtocol, TimedCondWaitCanEatASignal) {
  // A timed waiter stays enabled and may time out before any signal
  // lands (§3.2) — but it must remain *able* to eat one: keep waiting
  // and signalling until a wait returns "signalled".
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  bool SawSignal = false;
  S.run([&] {
    Mutex M;
    CondVar Cv;
    Atomic<int> Eaten(0);
    Thread T = Thread::spawn([&] {
      UniqueLock L(M);
      for (int I = 0; I != 10000 && !Eaten.load(); ++I)
        if (Cv.waitFor(M, 1)) {
          SawSignal = true;
          Eaten.store(1);
        }
    });
    while (Eaten.load() == 0) {
      UniqueLock L(M);
      Cv.signal();
    }
    T.join();
  });
  EXPECT_TRUE(SawSignal);
}

//===----------------------------------------------------------------------===//
// Signals (§4.3)
//===----------------------------------------------------------------------===//

TEST(SchedSignals, HandlerRunsOnTargetThread) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  Tid HandlerTid = InvalidTid;
  S.run([&] {
    Atomic<int> Done(0);
    installSignalHandler(10, [&] {
      HandlerTid = Session::currentTid();
      Done.store(1);
    });
    Thread T = Thread::spawn([&] {
      while (Done.load() == 0) {
      }
    });
    raiseSignal(T.tid(), 10);
    T.join();
  });
  EXPECT_EQ(HandlerTid, 1u);
}

TEST(SchedSignals, SignalToDisabledThreadWakesIt) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  bool HandlerRan = false;
  RunReport R = S.run([&] {
    Mutex M;
    Atomic<int> Blocked(0);
    Atomic<int> Release(0);
    installSignalHandler(12, [&] { HandlerRan = true; });
    M.lock();
    Thread T = Thread::spawn([&] {
      Blocked.store(1);
      M.lock(); // disables the thread (main holds M)
      M.unlock();
    });
    while (Blocked.load() == 0) {
    }
    for (int I = 0; I != 8; ++I)
      (void)Release.load(); // let the child reach the failed trylock
    raiseSignal(T.tid(), 12); // wakeup + handler, then re-block (§4.5)
    while (!HandlerRan) {
    }
    M.unlock();
    T.join();
  });
  EXPECT_TRUE(HandlerRan);
  // The wakeup of the disabled thread is accounted separately from the
  // delivery itself.
  EXPECT_EQ(R.Sched.SignalWakeups, 1u);
  EXPECT_EQ(R.Sched.SignalsDelivered, 1u);
}

TEST(SchedSignals, SignalsWhileInHandlerAreDeferred) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  int MaxDepth = 0;
  S.run([&] {
    Atomic<int> Depth(0);
    Atomic<int> Runs(0);
    installSignalHandler(11, [&] {
      const int D = Depth.fetchAdd(1) + 1;
      if (D > MaxDepth)
        MaxDepth = D;
      // Do a few visible ops so a nested delivery would have a window.
      for (int I = 0; I != 4; ++I)
        (void)Depth.load();
      Depth.fetchSub(1);
      Runs.fetchAdd(1);
    });
    Thread T = Thread::spawn([&] {
      while (Runs.load() < 2) {
      }
    });
    raiseSignal(T.tid(), 11);
    raiseSignal(T.tid(), 11);
    T.join();
  });
  EXPECT_EQ(MaxDepth, 1); // never nested
}

TEST(SchedSignals, ExternalPostFromHostThread) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
  Session S(C);
  std::atomic<bool> Posted{false};
  bool HandlerRan = false;
  std::thread Injector;
  RunReport R = S.run([&] {
    Atomic<int> Quit(0);
    installSignalHandler(2, [&] {
      HandlerRan = true;
      Quit.store(1);
    });
    // The host-side injector models a user pressing Ctrl-C.
    Injector = std::thread([&] {
      S.postSignal(0, 2);
      Posted = true;
    });
    while (Quit.load() == 0) {
    }
  });
  Injector.join();
  EXPECT_TRUE(Posted);
  EXPECT_TRUE(HandlerRan);
  EXPECT_EQ(R.Sched.SignalsDelivered, 1u);
}

//===----------------------------------------------------------------------===//
// Deadlock detection
//===----------------------------------------------------------------------===//

TEST(SchedDeadlock, SelfJoinDeadlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue));
        C.LivenessIntervalMs = 0;
        C.AbortOnDeadlock = true; // legacy behaviour: fatal() and die
        Session S(C);
        S.run([] {
          Mutex A, B;
          Atomic<int> Step(0);
          Thread T = Thread::spawn([&] {
            B.lock();
            Step.store(1);
            while (Step.load() != 2) {
            }
            A.lock(); // deadlock: main holds A, we hold B
            A.unlock();
            B.unlock();
          });
          A.lock();
          while (Step.load() != 1) {
          }
          Step.store(2);
          B.lock(); // deadlock: child holds B waiting for A
          B.unlock();
          A.unlock();
          T.join();
        });
      },
      "deadlock: every live thread is disabled");
}

TEST(SchedDeadlock, DefaultModeSalvagesDeadlockIntoReport) {
  // Without AbortOnDeadlock the session survives the ABBA deadlock: the
  // deadlocked threads are parked and detached, the recording is kept,
  // and run() returns a structured Deadlock report instead of dying.
  SessionConfig C =
      fixedSeeds(presets::tsan11rec(StrategyKind::Queue, Mode::Record));
  C.LivenessIntervalMs = 0;
  Session S(C);
  RunReport R = S.run([] {
    Mutex A, B;
    Atomic<int> Step(0);
    Thread T = Thread::spawn([&] {
      B.lock();
      Step.store(1);
      while (Step.load() != 2) {
      }
      A.lock(); // deadlock: main holds A, we hold B
      A.unlock();
      B.unlock();
    });
    A.lock();
    while (Step.load() != 1) {
    }
    Step.store(2);
    B.lock(); // deadlock: child holds B waiting for A
    B.unlock();
    A.unlock();
    T.join();
  });
  EXPECT_TRUE(R.Deadlocked);
  EXPECT_TRUE(R.Sched.Deadlocked);
  EXPECT_EQ(R.Desync, DesyncKind::Hard);
  EXPECT_EQ(R.DesyncInfo.Reason, DesyncReason::Deadlock);
  EXPECT_NE(R.DesyncMessage.find("deadlock"), std::string::npos);
  // The recording survived the shutdown: replaying it must reproduce the
  // deadlock deterministically (and survive it the same way).
  SessionConfig RC =
      fixedSeeds(presets::tsan11rec(StrategyKind::Queue, Mode::Replay));
  RC.LivenessIntervalMs = 0;
  RC.ReplayDemo = &R.RecordedDemo;
  Session RS(RC);
  RunReport RR = RS.run([] {
    Mutex A, B;
    Atomic<int> Step(0);
    Thread T = Thread::spawn([&] {
      B.lock();
      Step.store(1);
      while (Step.load() != 2) {
      }
      A.lock();
      A.unlock();
      B.unlock();
    });
    A.lock();
    while (Step.load() != 1) {
    }
    Step.store(2);
    B.lock();
    B.unlock();
    A.unlock();
    T.join();
  });
  EXPECT_TRUE(RR.Deadlocked);
  EXPECT_EQ(RR.DesyncInfo.Reason, DesyncReason::Deadlock);
  EXPECT_EQ(RR.DesyncInfo.Tick, R.DesyncInfo.Tick);
}

//===----------------------------------------------------------------------===//
// Liveness rescheduling (§3.3)
//===----------------------------------------------------------------------===//

TEST(SchedLiveness, RescheduleRescuesStalledRandomDesignation) {
  // A thread that burns a long invisible stretch while designated would
  // stall everyone; the liveness poll forces a reschedule and the run
  // completes quickly. With liveness disabled this test would still pass
  // eventually — the assertion is on the recorded Reschedules counter.
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Random), 3);
  C.LivenessIntervalMs = 5;
  Session S(C);
  RunReport R = S.run([] {
    Atomic<int> Flag(0);
    Thread Slow = Thread::spawn([&] {
      // Long invisible region: real milliseconds without a visible op.
      const auto Until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
      while (std::chrono::steady_clock::now() < Until) {
      }
      Flag.store(1);
    });
    Thread Fast = Thread::spawn([&] {
      while (Flag.load(std::memory_order_relaxed) == 0) {
      }
    });
    Slow.join();
    Fast.join();
  });
  EXPECT_GT(R.Sched.Reschedules, 0u);
}

//===----------------------------------------------------------------------===//
// Targeted wakeups
//===----------------------------------------------------------------------===//

/// Contended workload: lots of parked threads per tick, so every
/// designation is a real handoff and sloppy wake targeting shows up as
/// spurious wakeups immediately.
void contendedWorkload() {
  constexpr int Workers = 4;
  constexpr int Rounds = 40;
  Atomic<uint64_t> Shared(0);
  Mutex M;
  std::vector<Thread> Ts;
  Ts.reserve(Workers);
  for (int W = 0; W != Workers; ++W) {
    Ts.push_back(Thread::spawn([&] {
      for (int I = 0; I != Rounds; ++I) {
        Shared.fetchAdd(1);
        M.lock();
        M.unlock();
      }
    }));
  }
  for (Thread &T : Ts)
    T.join();
}

TEST(SchedWakeup, TargetedParkingHasZeroSpuriousWakeupsRandom) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Random), 11);
  C.LivenessIntervalMs = 0;
  Session S(C);
  RunReport R = S.run(contendedWorkload);
  // Every slot wake carries a designation the sleeper can claim, so no
  // thread ever re-parks after being woken.
  EXPECT_EQ(R.Sched.SpuriousWakeups, 0u);
  EXPECT_GT(R.Sched.TargetedWakeups, 0u);
  EXPECT_EQ(R.Sched.BroadcastWakeups, 0u);
  EXPECT_EQ(R.Metrics.counterOr("sched.spurious_wakeups", 1), 0u);
  EXPECT_EQ(R.Metrics.counterOr("sched.targeted_wakeups", 0),
            R.Sched.TargetedWakeups);
}

TEST(SchedWakeup, TargetedParkingHasZeroSpuriousWakeupsQueue) {
  SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue), 12);
  C.LivenessIntervalMs = 0;
  Session S(C);
  RunReport R = S.run(contendedWorkload);
  // Queue designates AnyTid only while no parked arrival is enabled, so
  // the FCFS grant in wait() never loses a race to another sleeper.
  EXPECT_EQ(R.Sched.SpuriousWakeups, 0u);
  EXPECT_GT(R.Sched.TargetedWakeups, 0u);
}

/// A mutex waiter is taken off its list by a signal wakeup (the async
/// removeFromWaitListsLocked path), blocks again after its handler, and
/// then receives the mutex on unlock. The waiter count that lets the
/// uncontended lock/unlock skip the scheduler mutex must follow every
/// step, or the unlock would miss its waiter.
RunReport signalledMutexWaiterRun(const SessionConfig &C,
                                  int &ChildLocks) {
  Session S(C);
  ChildLocks = 0;
  RunReport R = S.run([&S, &ChildLocks] {
    Mutex M;
    Atomic<int> HandlerRan(0);
    // Read inside a critical section: the count is part of the schedule
    // only there.
    const auto Waiters = [&S] {
      return S.visibleOp([&S](Tid) { return S.sched().mutexWaiterCount(); });
    };
    const auto AwaitWaiter = [&Waiters] {
      for (int I = 0; I != 10000 && Waiters() == 0; ++I) {
      }
    };
    installSignalHandler(13, [&HandlerRan] { HandlerRan.store(1); });
    M.lock();
    Thread T = Thread::spawn([&M, &ChildLocks] {
      M.lock(); // main holds M: the failed trylock disables this thread
      ++ChildLocks;
      M.unlock();
    });
    AwaitWaiter();
    EXPECT_EQ(Waiters(), 1u);
    raiseSignal(T.tid(), 13); // enables the waiter, leaving its list
    while (HandlerRan.load() == 0) {
    }
    AwaitWaiter(); // the retry after the handler fails again
    M.unlock();    // hands M to the waiter
    M.lock();
    M.unlock();
    T.join();
    EXPECT_EQ(Waiters(), 0u);
  });
  EXPECT_EQ(S.sched().mutexWaiterCount(), 0u);
  return R;
}

TEST(SchedWakeup, SignalledMutexWaiterKeepsTheWaiterCountExact) {
  for (const StrategyKind K : {StrategyKind::Random, StrategyKind::Queue}) {
    SessionConfig C = fixedSeeds(
        presets::tsan11rec(K, Mode::Record, RecordPolicy::full()), 14);
    C.LivenessIntervalMs = 0;
    int RecordLocks = 0;
    const RunReport Recorded = signalledMutexWaiterRun(C, RecordLocks);
    ASSERT_EQ(Recorded.Desync, DesyncKind::None) << strategyName(K);
    EXPECT_FALSE(Recorded.Deadlocked) << strategyName(K);
    EXPECT_EQ(RecordLocks, 1) << strategyName(K);
    EXPECT_EQ(Recorded.Sched.SignalWakeups, 1u) << strategyName(K);
    EXPECT_EQ(Recorded.Sched.SpuriousWakeups, 0u) << strategyName(K);

    C.ExecMode = Mode::Replay;
    C.ReplayDemo = &Recorded.RecordedDemo;
    int ReplayLocks = 0;
    const RunReport Replayed = signalledMutexWaiterRun(C, ReplayLocks);
    EXPECT_EQ(Replayed.Desync, DesyncKind::None) << strategyName(K);
    EXPECT_EQ(Replayed.Sched.Ticks, Recorded.Sched.Ticks) << strategyName(K);
    EXPECT_EQ(ReplayLocks, 1) << strategyName(K);
    EXPECT_EQ(Replayed.Sched.SignalWakeups, 1u) << strategyName(K);
    EXPECT_EQ(Replayed.Sched.SpuriousWakeups, 0u) << strategyName(K);
  }
}

//===----------------------------------------------------------------------===//
// Tick commit pipeline
//===----------------------------------------------------------------------===//

pbzip::PbzipConfig commitPbzipConfig() {
  pbzip::PbzipConfig PC;
  PC.Threads = 3;
  PC.BlockSize = 256;
  return PC;
}

std::vector<uint8_t> commitPbzipInput() {
  std::vector<uint8_t> Input;
  for (int I = 0; I != 60; ++I) {
    const std::string Chunk = "commit payload " + std::to_string(I % 19) + " ";
    Input.insert(Input.end(), Chunk.begin(), Chunk.end());
  }
  return Input;
}

std::string commitFreshDir(const std::string &Tag) {
  const std::string Dir = ::testing::TempDir() + "tsr-commit-" + Tag + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::vector<uint8_t> commitReadFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

/// Asserts the stream files of \p DirA and \p DirB are byte-equal.
void expectCommitStreamsIdentical(const std::string &DirA,
                                  const std::string &DirB) {
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    const std::string Name = streamName(static_cast<StreamKind>(I));
    const std::vector<uint8_t> A = commitReadFile(DirA + "/" + Name);
    const std::vector<uint8_t> B = commitReadFile(DirB + "/" + Name);
    EXPECT_FALSE(A.empty()) << DirA << "/" << Name;
    EXPECT_EQ(A, B) << Name << " differs between " << DirA << " and " << DirB;
  }
}

/// One workload for the cross-mode sweeps: pbzip plus every litmus
/// benchmark, each with fresh per-run state.
struct CommitWorkload {
  std::string Name;
  std::function<void(Session &)> Setup; ///< may be null
  std::function<void()> Body;
};

std::vector<CommitWorkload> commitWorkloads() {
  std::vector<CommitWorkload> W;
  W.push_back({"pbzip",
               [](Session &S) {
                 S.env().putFile(commitPbzipConfig().InputPath,
                                 commitPbzipInput());
               },
               [] { pbzip::compressFile(commitPbzipConfig()); }});
  for (const litmus::LitmusTest &T : litmus::suite())
    W.push_back({T.Name, nullptr, T.Body});
  return W;
}

TEST(TickCommit, MutexSideParkerWaitsForThePublishedGrant) {
  // A fast commit names its successor in Active before it publishes the
  // successor's FastGrant. A successor parked on the mutex path must not
  // take that early Active as its grant: it would run while the
  // committer is still mid-commit, and the committer's late publish
  // would overwrite a newer grant and strand every live thread until the
  // watchdog aborts the process. A spin-wait ping-pong under the queue
  // strategy forces a concrete handoff to a parked waiter every few
  // ticks, and tracing widens the window between the two stores. Before
  // the fix, this 200-session loop aborted in more than half of its runs.
  for (int I = 0; I != 200; ++I) {
    SessionConfig C = fixedSeeds(presets::tsan11rec(StrategyKind::Queue), 25);
    C.LivenessIntervalMs = 0;
    C.Trace.Enabled = true;
    Session S(C);
    RunReport R = S.run([] {
      Atomic<int> Turn(0);
      const auto Play = [&Turn](int Me) {
        for (int Round = 0; Round != 100; ++Round) {
          while (Turn.load(std::memory_order_acquire) != Me) {
          }
          Turn.store(1 - Me, std::memory_order_release);
        }
      };
      Thread T = Thread::spawn([&] { Play(1); });
      Play(0);
      T.join();
    });
    ASSERT_EQ(R.Desync, DesyncKind::None) << "run " << I;
    EXPECT_EQ(R.Sched.SpuriousWakeups, 0u) << "run " << I;
  }
}

TEST(TickCommit, FastPathCarriesLitmusSweepUnderQueue) {
  // The pipelined commit must actually absorb the hot path: across the
  // full litmus suite under the queue strategy, ticks overwhelmingly
  // commit without touching the scheduler mutex, every tick lands in
  // exactly one bucket, and the split is published through the metrics
  // registry under the documented names.
  uint64_t Fast = 0, Slow = 0, Ticks = 0;
  for (const litmus::LitmusTest &T : litmus::suite()) {
    SessionConfig C =
        fixedSeeds(presets::tsan11rec(StrategyKind::Queue, Mode::Record), 21);
    C.LivenessIntervalMs = 0;
    Session S(C);
    RunReport R = S.run(T.Body);
    EXPECT_EQ(R.Desync, DesyncKind::None) << T.Name;
    EXPECT_EQ(R.Sched.SpuriousWakeups, 0u) << T.Name;
    EXPECT_EQ(R.Metrics.counterOr("sched.fast_path_commits", ~0ull),
              R.Sched.FastPathCommits)
        << T.Name;
    EXPECT_EQ(R.Metrics.counterOr("sched.slow_path_commits", ~0ull),
              R.Sched.SlowPathCommits)
        << T.Name;
    EXPECT_EQ(R.Metrics.counterOr("sched.fast_path_aborts", ~0ull),
              R.Sched.FastPathAborts)
        << T.Name;
    Fast += R.Sched.FastPathCommits;
    Slow += R.Sched.SlowPathCommits;
    Ticks += R.Sched.Ticks;
  }
  EXPECT_EQ(Fast + Slow, Ticks);
  EXPECT_GT(static_cast<double>(Fast), 0.9 * static_cast<double>(Ticks));
}

TEST(TickCommit, CommitModeKeepsRandomRecordingsBitIdentical) {
  // A random-strategy schedule is a pure function of the seeds, so the
  // commit mode — which only changes how a decided tick is published —
  // must not leak into the recording: pbzip and every litmus benchmark
  // recorded under the pipeline and under the mutex produce byte-equal
  // on-disk streams, and the recording replays cleanly under both modes.
  for (const CommitWorkload &W : commitWorkloads()) {
    std::array<RunReport, 2> Recorded;
    std::array<std::string, 2> Dirs;
    const TickCommitMode Modes[2] = {TickCommitMode::Pipelined,
                                     TickCommitMode::Mutex};
    for (int I = 0; I != 2; ++I) {
      SessionConfig C = fixedSeeds(
          presets::tsan11rec(StrategyKind::Random, Mode::Record,
                             RecordPolicy::full()),
          22);
      C.LivenessIntervalMs = 0;
      C.TickCommit = Modes[I];
      Dirs[I] = commitFreshDir(W.Name + (I ? "-mutex" : "-pipe"));
      C.Flush.Directory = Dirs[I];
      C.Flush.EveryTicks = 4;
      Session S(C);
      if (W.Setup)
        W.Setup(S);
      Recorded[I] = S.run(W.Body);
      ASSERT_EQ(Recorded[I].Desync, DesyncKind::None) << W.Name;
    }
    EXPECT_EQ(Recorded[0].Sched.Ticks, Recorded[1].Sched.Ticks) << W.Name;
    EXPECT_TRUE(Recorded[0].RecordedDemo == Recorded[1].RecordedDemo)
        << W.Name;
    expectCommitStreamsIdentical(Dirs[0], Dirs[1]);

    for (const TickCommitMode Replay : Modes) {
      SessionConfig C = fixedSeeds(
          presets::tsan11rec(StrategyKind::Random, Mode::Replay,
                             RecordPolicy::full()),
          22);
      C.LivenessIntervalMs = 0;
      C.TickCommit = Replay;
      C.ReplayDemo = &Recorded[0].RecordedDemo;
      Session S(C);
      if (W.Setup)
        W.Setup(S);
      RunReport R = S.run(W.Body);
      EXPECT_EQ(R.Desync, DesyncKind::None)
          << W.Name << " replay mode " << static_cast<int>(Replay);
      EXPECT_EQ(R.Sched.Ticks, Recorded[0].Sched.Ticks) << W.Name;
    }
    std::filesystem::remove_all(Dirs[0]);
    std::filesystem::remove_all(Dirs[1]);
  }
}

TEST(TickCommit, CommitModeKeepsQueueReplayIdentical) {
  // Queue recordings capture first-come-first-served grants, which are
  // OS-timing dependent by design — two recordings never compare byte
  // for byte, under any commit mode. The cross-mode contract lives on
  // the replay side instead: one recording replays desync-free with an
  // identical tick count whether the replayer commits through the
  // pipeline or the mutex.
  for (const CommitWorkload &W : commitWorkloads()) {
    RunReport Recorded;
    {
      SessionConfig C = fixedSeeds(
          presets::tsan11rec(StrategyKind::Queue, Mode::Record,
                             RecordPolicy::full()),
          23);
      C.LivenessIntervalMs = 0;
      Session S(C);
      if (W.Setup)
        W.Setup(S);
      Recorded = S.run(W.Body);
      ASSERT_EQ(Recorded.Desync, DesyncKind::None) << W.Name;
    }
    for (const TickCommitMode Replay :
         {TickCommitMode::Pipelined, TickCommitMode::Mutex}) {
      SessionConfig C = fixedSeeds(
          presets::tsan11rec(StrategyKind::Queue, Mode::Replay,
                             RecordPolicy::full()),
          23);
      C.LivenessIntervalMs = 0;
      C.TickCommit = Replay;
      C.ReplayDemo = &Recorded.RecordedDemo;
      Session S(C);
      if (W.Setup)
        W.Setup(S);
      RunReport R = S.run(W.Body);
      EXPECT_EQ(R.Desync, DesyncKind::None)
          << W.Name << " replay mode " << static_cast<int>(Replay);
      EXPECT_EQ(R.Sched.Ticks, Recorded.Sched.Ticks) << W.Name;
    }
  }
}

TEST(TickCommit, PoolRecordingUnderPipelineMatchesSoloUnderMutex) {
  // The strongest cross-mode identity: a session recorded inside a
  // SessionPool with the pipelined commit against the same workload
  // recorded solo with the mutex commit. Random strategy, so the
  // schedule is seed-determined; any byte of difference would prove the
  // pipeline (or the pool's shared writer backend) leaked into the
  // recording.
  const std::string SoloDir = commitFreshDir("solo");
  const std::string FleetRoot = commitFreshDir("fleetroot");

  RunReport Solo;
  {
    SessionConfig C = fixedSeeds(
        presets::tsan11rec(StrategyKind::Random, Mode::Record,
                           RecordPolicy::full()),
        24);
    C.LivenessIntervalMs = 0;
    C.TickCommit = TickCommitMode::Mutex;
    C.Flush.Directory = SoloDir;
    C.Flush.EveryTicks = 4;
    Session S(C);
    S.env().putFile(commitPbzipConfig().InputPath, commitPbzipInput());
    Solo = S.run([] { pbzip::compressFile(commitPbzipConfig()); });
    ASSERT_EQ(Solo.Desync, DesyncKind::None);
  }

  SessionPool::Options PO;
  PO.DemoRoot = FleetRoot;
  PO.FlushEveryTicks = 4;
  SessionPool Pool(PO);
  PoolSessionSpec Spec;
  Spec.Name = "pbzip";
  Spec.Config = fixedSeeds(
      presets::tsan11rec(StrategyKind::Random, Mode::Record,
                         RecordPolicy::full()),
      24);
  Spec.Config.LivenessIntervalMs = 0;
  Spec.Config.TickCommit = TickCommitMode::Pipelined;
  Spec.Setup = [](Session &S) {
    S.env().putFile(commitPbzipConfig().InputPath, commitPbzipInput());
  };
  Spec.Body = [] { pbzip::compressFile(commitPbzipConfig()); };
  Pool.submit(std::move(Spec));
  FleetReport Fleet = Pool.runAll();
  ASSERT_EQ(Fleet.SessionsRun, 1u);
  ASSERT_EQ(Fleet.Sessions[0].Report.Desync, DesyncKind::None);

  EXPECT_EQ(Fleet.Sessions[0].Report.Sched.Ticks, Solo.Sched.Ticks);
  EXPECT_TRUE(Fleet.Sessions[0].Report.RecordedDemo == Solo.RecordedDemo);
  expectCommitStreamsIdentical(SoloDir, FleetRoot + "/pbzip");
  std::filesystem::remove_all(SoloDir);
  std::filesystem::remove_all(FleetRoot);
}

} // namespace
