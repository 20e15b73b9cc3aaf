//===-- sched/Strategy.cpp - Scheduling strategies --------------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "sched/Strategy.h"

#include "support/Compiler.h"

#include <algorithm>
#include <mutex>

using namespace tsr;

const char *tsr::strategyName(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::Random:
    return "random";
  case StrategyKind::Queue:
    return "queue";
  case StrategyKind::RoundRobin:
    return "round-robin";
  case StrategyKind::Pct:
    return "pct";
  case StrategyKind::DelayBounded:
    return "delay-bounded";
  }
  TSR_UNREACHABLE("invalid StrategyKind");
}

Strategy::~Strategy() = default;
void Strategy::onArrive(Tid) {}
void Strategy::onDesignated(Tid) {}
void Strategy::onThreadNew(Tid, Prng &) {}
void Strategy::onTick(uint64_t, Tid, Prng &) {}
// Every strategy except queue picks without consulting arrival order, so
// eager designation (and its §5.2 stall cost) is the default.
bool Strategy::designatesEagerly() const { return true; }

// Every eager strategy designates a concrete thread whenever one is
// enabled (random/pct pick among the enabled set; round-robin and
// delay-bounded scan it), so "any enabled thread exists" is exact.
bool Strategy::fastPickPossible(const ThreadView &Threads) const {
  for (Tid T = 0, E = Threads.threadCount(); T != E; ++T)
    if (Threads.isEnabled(T))
      return true;
  return false;
}

size_t Strategy::pickWaiter(const std::vector<Tid> &Waiters, Prng &) {
  assert(!Waiters.empty() && "pickWaiter requires waiters");
  return 0;
}

namespace {

/// Controlled random scheduling (§3): the next thread is drawn uniformly
/// from all enabled threads at each scheduling point. A chosen thread need
/// not have reached Wait() yet — the scheduler stalls until it arrives,
/// which is the source of the random strategy's overhead on parallel
/// workloads (§5.2).
class RandomStrategy final : public Strategy {
public:
  StrategyKind kind() const override { return StrategyKind::Random; }

  // Draws the k-th enabled thread in ascending tid order: the draw a
  // collected list of enabled tids would take, without building one per
  // tick.
  Tid pickNext(const ThreadView &Threads, Prng &Rng) override {
    const Tid N = Threads.threadCount();
    uint64_t Enabled = 0;
    for (Tid T = 0; T != N; ++T)
      Enabled += Threads.isEnabled(T);
    if (Enabled == 0)
      return InvalidTid;
    uint64_t K = Rng.nextBelow(Enabled);
    for (Tid T = 0; T != N; ++T)
      if (Threads.isEnabled(T) && K-- == 0)
        return T;
    TSR_UNREACHABLE("enabled set changed during pickNext");
  }

  size_t pickWaiter(const std::vector<Tid> &Waiters, Prng &Rng) override {
    assert(!Waiters.empty() && "pickWaiter requires waiters");
    return Rng.nextBelow(Waiters.size());
  }
};

/// First-come-first-served scheduling (§3): threads enqueue on reaching
/// Wait(); the head of the queue runs next. Fast, because a thread is
/// "unlikely to be blocked in Wait() unless another thread is already
/// critical" (§4.2), but the arrival order depends on physical timing, so
/// record mode logs the executed schedule in QUEUE.
class QueueStrategy final : public Strategy {
public:
  StrategyKind kind() const override { return StrategyKind::Queue; }

  bool designatesEagerly() const override { return false; }

  // The one hook that runs outside the commit serialization domain under
  // the pipelined commit mode (see Strategy.h): the arrival state gets a
  // leaf mutex of its own. Uncontended in the common case — committers
  // only take it while picking, arrivals only while enqueuing — and never
  // held across anything that blocks.
  void onArrive(Tid T) override {
    std::lock_guard<std::mutex> L(ArrivalMu);
    if (T >= InQueue.size())
      InQueue.resize(T + 1, false);
    if (InQueue[T])
      return;
    InQueue[T] = true;
    Arrivals.push_back(T);
  }

  void onDesignated(Tid T) override {
    std::lock_guard<std::mutex> L(ArrivalMu);
    removeFromQueueLocked(T);
  }

  Tid pickNext(const ThreadView &Threads, Prng &) override {
    std::lock_guard<std::mutex> L(ArrivalMu);
    // Skip over disabled entries without losing their arrival order; a
    // thread disabled while queued (e.g. a failed trylock) keeps its slot
    // until re-enabled.
    for (Tid T : Arrivals) {
      if (!Threads.isEnabled(T))
        continue;
      removeFromQueueLocked(T);
      return T;
    }
    // Nobody is waiting: first come, first served for the next arrival.
    return AnyTid;
  }

  bool fastPickPossible(const ThreadView &Threads) const override {
    std::lock_guard<std::mutex> L(ArrivalMu);
    for (Tid T : Arrivals)
      if (Threads.isEnabled(T))
        return true;
    return false;
  }

private:
  void removeFromQueueLocked(Tid T) {
    if (T >= InQueue.size() || !InQueue[T])
      return;
    InQueue[T] = false;
    auto It = std::find(Arrivals.begin(), Arrivals.end(), T);
    assert(It != Arrivals.end() && "InQueue flag out of sync");
    Arrivals.erase(It);
  }

  mutable std::mutex ArrivalMu;
  std::deque<Tid> Arrivals;
  std::vector<bool> InQueue;
};

/// Deterministic round-robin over enabled threads; a debugging aid that
/// needs no PRNG at all.
class RoundRobinStrategy final : public Strategy {
public:
  StrategyKind kind() const override { return StrategyKind::RoundRobin; }

  Tid pickNext(const ThreadView &Threads, Prng &) override {
    const Tid N = Threads.threadCount();
    if (N == 0)
      return InvalidTid;
    for (Tid Step = 1; Step <= N; ++Step) {
      const Tid T = (Last + Step) % N;
      if (Threads.isEnabled(T)) {
        Last = T;
        return T;
      }
    }
    return InvalidTid;
  }

private:
  Tid Last = 0;
};

/// Probabilistic concurrency testing [Burckhardt et al., ASPLOS 2010]: each
/// thread gets a random priority; the highest-priority enabled thread runs;
/// at random change points the running thread is demoted below every other
/// priority. The paper proposes bringing PCT to the tsan11rec setting as
/// future work (§7); benchmarks show it finds the chase-lev-deque race the
/// uniform random strategy misses (§5.1).
class PctStrategy final : public Strategy {
public:
  explicit PctStrategy(double ChangeProb) : ChangeProb(ChangeProb) {}

  StrategyKind kind() const override { return StrategyKind::Pct; }

  void onThreadNew(Tid T, Prng &Rng) override {
    if (T >= Priority.size())
      Priority.resize(T + 1, 0);
    // High random band; demotions use a decreasing low band so a demoted
    // thread sits below every undemoted one.
    Priority[T] = (1ull << 32) + Rng.nextBelow(1ull << 31);
  }

  void onTick(uint64_t, Tid Who, Prng &Rng) override {
    if (Who < Priority.size() && Rng.nextBool(ChangeProb))
      Priority[Who] = NextLowPriority--;
  }

  Tid pickNext(const ThreadView &Threads, Prng &) override {
    Tid Best = InvalidTid;
    uint64_t BestPriority = 0;
    for (Tid T = 0, E = Threads.threadCount(); T != E; ++T) {
      if (!Threads.isEnabled(T))
        continue;
      const uint64_t P = T < Priority.size() ? Priority[T] : 0;
      if (Best == InvalidTid || P > BestPriority) {
        Best = T;
        BestPriority = P;
      }
    }
    return Best;
  }

private:
  double ChangeProb;
  std::vector<uint64_t> Priority;
  uint64_t NextLowPriority = (1ull << 31);
};

/// Delay-bounded scheduling [Emmi et al., POPL 2011]: the base schedule
/// is non-preemptive round-robin — the running thread keeps the processor
/// until it blocks — and the scheduler may insert at most DelayBudget
/// "delays", each demoting the running thread one position. Empirically
/// most concurrency bugs need only a few preemptions [56], so a small
/// budget explores the valuable corner of the schedule space. A fairness
/// bound rotates out threads that spin for DelayBoundedForcedSwitch
/// consecutive ticks, which plain delay bounding (built for terminating,
/// yield-free test scenarios) does not need but spin-heavy code does.
class DelayBoundedStrategy final : public Strategy {
public:
  explicit DelayBoundedStrategy(const StrategyParams &Params)
      : Budget(Params.DelayBudget), DelayProb(Params.DelayProb),
        ForcedSwitch(Params.DelayBoundedForcedSwitch) {}

  StrategyKind kind() const override { return StrategyKind::DelayBounded; }

  void onTick(uint64_t, Tid Who, Prng &) override {
    if (Who == Current)
      ++Consecutive;
  }

  Tid pickNext(const ThreadView &Threads, Prng &Rng) override {
    const bool CurrentRunnable =
        Current != InvalidTid && Threads.isEnabled(Current);
    if (CurrentRunnable && Consecutive < ForcedSwitch) {
      // Non-preemptive default: keep running, unless a delay preempts.
      if (!(Budget > 0 && Rng.nextBool(DelayProb)))
        return Current;
      --Budget;
    }
    // Rotation: candidates in cyclic order after Current. Each further
    // delay spent here skips one candidate — Emmi et al.'s "delay the
    // head of the queue", which is what lets a younger thread overtake.
    const Tid N = Threads.threadCount();
    const Tid Start = Current == InvalidTid ? 0 : Current;
    std::vector<Tid> Candidates;
    for (Tid Step = 1; Step <= N; ++Step) {
      const Tid T = (Start + Step) % N;
      if (Threads.isEnabled(T))
        Candidates.push_back(T);
    }
    if (Candidates.empty())
      return CurrentRunnable ? Current : InvalidTid;
    size_t Idx = 0;
    while (Budget > 0 && Idx + 1 < Candidates.size() &&
           Rng.nextBool(DelayProb)) {
      ++Idx;
      --Budget;
    }
    Current = Candidates[Idx];
    Consecutive = 0;
    return Current;
  }

private:
  Tid Current = InvalidTid;
  unsigned Consecutive = 0;
  unsigned Budget;
  double DelayProb;
  unsigned ForcedSwitch;
};

} // namespace

std::unique_ptr<Strategy> tsr::makeStrategy(StrategyKind Kind,
                                            const StrategyParams &Params) {
  switch (Kind) {
  case StrategyKind::Random:
    return std::make_unique<RandomStrategy>();
  case StrategyKind::Queue:
    return std::make_unique<QueueStrategy>();
  case StrategyKind::RoundRobin:
    return std::make_unique<RoundRobinStrategy>();
  case StrategyKind::Pct:
    return std::make_unique<PctStrategy>(Params.PctChangeProb);
  case StrategyKind::DelayBounded:
    return std::make_unique<DelayBoundedStrategy>(Params);
  }
  TSR_UNREACHABLE("invalid StrategyKind");
}
