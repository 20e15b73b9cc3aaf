//===-- env/CostModel.cpp - Virtual-time performance model -----*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "env/CostModel.h"

#include <algorithm>
#include <cassert>

using namespace tsr;

namespace {
constexpr auto Relaxed = std::memory_order_relaxed;
} // namespace

void CostModel::threadStart(Tid T, Tid Parent) {
  while (Slots.size() <= T)
    Slots.emplace_back();
  Slots[T].Local.store(Parent == InvalidTid || Parent >= Slots.size()
                           ? VTime(0)
                           : Slots[Parent].Local.load(Relaxed),
                       Relaxed);
}

void CostModel::work(Tid T, VTime Ns) {
  assert(T < Slots.size() && "work by unregistered thread");
  Slot &S = Slots[T];
  const VTime Cost = static_cast<VTime>(
      static_cast<double>(Ns) * Config.InstrFactor);
  S.WorkSinceOp += Cost;
  if (Config.SequentializeAll) {
    // rr: one thread at a time — all work extends the single timeline.
    std::lock_guard<std::mutex> L(ChainMu);
    chain(S, Cost);
    return;
  }
  S.Local.fetch_add(Cost, Relaxed);
}

void CostModel::chain(Slot &S, VTime Cost) {
  const VTime Chain = GlobalChain.load(Relaxed);
  const VTime Local = S.Local.load(Relaxed);
  if (Local > Chain) {
    // The thread is ahead of the chain because it waited (poll
    // deadlines, sleeps): the serialization resource was idle at its
    // time, so its operation runs at its own clock and only the busy
    // cost accrues on the chain. Without this, one idle poller would
    // drag every other thread's clock forward.
    S.Local.store(Local + Cost, Relaxed);
    GlobalChain.store(Chain + Cost, Relaxed);
    return;
  }
  // The thread is at or behind the chain: its operation queues behind
  // the serialized stream.
  S.Local.store(Chain + Cost, Relaxed);
  GlobalChain.store(Chain + Cost, Relaxed);
}

void CostModel::visibleOp(Tid T, VTime ExtraCost) {
  assert(T < Slots.size() && "visible op by unregistered thread");
  Slot &S = Slots[T];
  const VTime Cost = Config.VisibleOpCost + ExtraCost;
  // Only rr-sim's work() reaches GlobalChain outside a critical section.
  std::unique_lock<std::mutex> L(ChainMu, std::defer_lock);
  if (Config.SequentializeAll)
    L.lock();
  if (Config.ChainVisibleOps && S.EagerStalled) {
    // An eager strategy designated this thread; the chain idled while it
    // emerged from invisible code. The stall is estimated purely in
    // virtual time — the thread's lead over the chain, limited to the
    // part earned by declared work since its last visible op (an idle
    // poller ahead of the chain via a wait deadline stalled nobody).
    // Virtual-only inputs keep recordings deterministic: sampling the
    // thread's physical parked state here would leak wall-clock timing
    // into clocks that recorded syscalls embed in the demo.
    S.EagerStalled = false;
    const VTime Local = S.Local.load(Relaxed);
    const VTime Chain = GlobalChain.load(Relaxed);
    const VTime Gap = Local > Chain ? Local - Chain : 0;
    const VTime Stall = std::min(Gap, S.WorkSinceOp);
    if (Stall) {
      EagerStalls.fetch_add(1, Relaxed);
      const VTime Charge = std::min(Stall, Config.EagerStallCapNs) +
                           Config.EagerStallFixedNs;
      EagerChargedNs.fetch_add(Charge, Relaxed);
      GlobalChain.store(Chain + Charge, Relaxed);
      // Everyone waited for this thread to arrive: wall-dead time. Other
      // threads may be in work() right now, hence fetch_add.
      for (Slot &O : Slots)
        O.Local.fetch_add(Charge, Relaxed);
    }
  }
  S.WorkSinceOp = 0;
  if (Config.ChainVisibleOps || Config.SequentializeAll) {
    chain(S, Cost);
    return;
  }
  S.Local.fetch_add(Cost, Relaxed);
}

void CostModel::syncAcquire(Tid T, VTime ObjTime) {
  waitUntil(T, ObjTime);
}

VTime CostModel::syncRelease(Tid T) { return localTime(T); }

void CostModel::waitUntil(Tid T, VTime Until) {
  assert(T < Slots.size() && "wait by unregistered thread");
  // Inside T's critical section: no eager charge (another critical
  // section) can add to T's clock between the load and the store.
  std::atomic<VTime> &Local = Slots[T].Local;
  if (Local.load(Relaxed) < Until)
    Local.store(Until, Relaxed);
}

void CostModel::advance(Tid T, VTime Ns) {
  assert(T < Slots.size() && "advance of unregistered thread");
  Slots[T].Local.fetch_add(Ns, Relaxed);
}

void CostModel::blockingOp(Tid T) {
  if (!Config.BlockingOpCost)
    return;
  assert(T < Slots.size() && "blockingOp by unregistered thread");
  Slot &S = Slots[T];
  if (Config.SequentializeAll) {
    std::lock_guard<std::mutex> L(ChainMu);
    chain(S, Config.BlockingOpCost);
  } else {
    S.Local.fetch_add(Config.BlockingOpCost, Relaxed);
  }
}

void CostModel::markEagerStall(Tid T) {
  if (T < Slots.size())
    Slots[T].EagerStalled = true;
}

VTime CostModel::localTime(Tid T) const {
  assert(T < Slots.size() && "query of unregistered thread");
  return Slots[T].Local.load(Relaxed);
}

uint64_t CostModel::eagerStallCount() const {
  return EagerStalls.load(Relaxed);
}

uint64_t CostModel::eagerChargedNs() const {
  return EagerChargedNs.load(Relaxed);
}

VTime CostModel::makespan() const {
  VTime M = 0;
  for (const Slot &S : Slots)
    M = std::max(M, S.Local.load(Relaxed));
  return M;
}
