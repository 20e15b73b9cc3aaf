//===-- env/CostModel.h - Virtual-time performance model -------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic virtual-time model of the paper's performance effects.
/// The paper's headline performance phenomenon — tsan11rec preserving
/// parallelism that rr's sequentialization destroys (§5.2, §5.3) —
/// depends on the host's core count in wall-clock numbers. This model
/// reproduces it analytically and deterministically, on any host:
///
///  * Invisible work advances only the running thread's local clock
///    (threads overlap freely, as on the paper's 8-core i7-4770).
///  * Under controlled scheduling, visible operations are totally ordered
///    and therefore form a global chain: each visible op starts no earlier
///    than the previous visible op ended, on any thread. A designated
///    thread that is still deep in invisible work stalls the chain — which
///    is exactly why the random strategy is slower than queue (§5.2).
///  * Under rr-style sequentialization, *all* work joins the chain, so an
///    N-thread CPU-bound workload degrades by ~N.
///  * Synchronisation (mutexes, joins) propagates clocks through the sync
///    object, modelling contention in the uncontrolled configurations.
///  * Instrumentation cost is a multiplicative factor on invisible work
///    plus a fixed cost per visible operation.
///
/// Benchmarks report makespans and throughputs in this virtual time; see
/// EXPERIMENTS.md for the shape comparison against the paper's tables.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_ENV_COSTMODEL_H
#define TSR_ENV_COSTMODEL_H

#include "support/ChunkedTable.h"
#include "support/VectorClock.h"

#include <atomic>
#include <cstdint>
#include <mutex>

namespace tsr {

/// Virtual nanoseconds.
using VTime = uint64_t;

/// Knobs describing one tool configuration's cost structure.
struct CostModelConfig {
  /// Multiplier on declared invisible work (tsan's shadow instrumentation:
  /// the paper quotes ~10x for access-heavy code; compute-heavy kernels
  /// see less).
  double InstrFactor = 1.0;

  /// Visible operations are serialized on a global chain (controlled
  /// scheduling).
  bool ChainVisibleOps = false;

  /// All work is serialized on the global chain (rr's sequentialization).
  bool SequentializeAll = false;

  /// Fixed virtual cost of one visible operation (instrumentation +
  /// scheduler handoff).
  VTime VisibleOpCost = 100;

  /// Extra virtual cost per recorded syscall (compression + demo write).
  VTime SyscallRecordCost = 600;

  /// When an eager strategy designates a thread that has not reached
  /// Wait() yet, everyone stalls until it arrives — the random strategy's
  /// pathology (§5.2): it picks among all enabled threads, parked or
  /// not, while queue only designates arrived threads. During the stall
  /// the whole system is dead in wall time, so the charge — the
  /// designated thread's virtual-time lead over the chain, limited to
  /// its current invisible segment (declared work since its last visible
  /// op), capped here, plus a fixed handoff cost — advances every
  /// thread's clock. The estimate uses virtual time only; physical
  /// arrival state must never feed it, because recorded syscalls embed
  /// these clocks and recording must be a pure function of the seeds.
  VTime EagerStallCapNs = 5000000;
  VTime EagerStallFixedNs = 2000;

  /// Extra cost of a blocking synchronisation operation (contended lock,
  /// condvar block): under the rr model these are futex syscalls that
  /// trap into the recorder.
  VTime BlockingOpCost = 0;
};

/// Tracks per-thread virtual clocks plus the global visible-op chain.
///
/// The state is owned by the scheduler's critical section, like the
/// scheduler's committer state (DESIGN.md §14.5): threadStart, visibleOp,
/// syncAcquire/syncRelease, waitUntil, advance and markEagerStall run
/// inside one (or in its commit), so they take no lock. Three callers
/// run outside it:
///
///  * work() and blockingOp() by the thread itself, from invisible code.
///    They add to the thread's clock with fetch_add, because another
///    thread's eager-stall charge adds to every clock at the same time.
///  * rr-sim (SequentializeAll): there work() and blockingOp() reach
///    GlobalChain from invisible code, so every chain update takes the
///    chain lock, a leaf lock used only in that configuration.
///  * The watchdog's makespan(), which reads the relaxed clocks.
class CostModel {
public:
  explicit CostModel(CostModelConfig Config = {}) : Config(Config) {}

  /// Registers a thread; its clock starts at the parent's current time
  /// (pass InvalidTid for the main thread).
  void threadStart(Tid T, Tid Parent);

  /// Declared invisible compute on thread \p T.
  void work(Tid T, VTime Ns);

  /// One visible operation by \p T; \p ExtraCost adds syscall payload
  /// costs on top of the per-op constant.
  void visibleOp(Tid T, VTime ExtraCost = 0);

  /// Acquire side of a sync object: T's clock catches up to the object.
  void syncAcquire(Tid T, VTime ObjTime);

  /// Release side: returns the released timestamp for the sync object.
  VTime syncRelease(Tid T);

  /// T waited (virtually) until \p Until; no-op if already past it.
  void waitUntil(Tid T, VTime Until);

  /// Advances T's clock by \p Ns (bounded waits like lock contention;
  /// not scaled by the instrumentation factor).
  void advance(Tid T, VTime Ns);

  /// A blocking sync operation by T (contended lock, condvar block);
  /// charges BlockingOpCost.
  void blockingOp(Tid T);

  /// An eager strategy designated T; T's next visible op prices any
  /// resulting chain stall from virtual-time state alone (no charge if T
  /// was not virtually behind on declared work).
  void markEagerStall(Tid T);

  /// Current local time of \p T.
  VTime localTime(Tid T) const;

  /// Makespan: the maximum local time across all threads.
  VTime makespan() const;

  /// Number of eager-designation stalls charged so far.
  uint64_t eagerStallCount() const;

  /// Total virtual ns charged for eager-designation stalls.
  uint64_t eagerChargedNs() const;

  const CostModelConfig &config() const { return Config; }

private:
  struct Slot {
    /// The thread's virtual clock. Relaxed atomic: the thread's own
    /// work() and another thread's eager-stall charge may add at once.
    std::atomic<VTime> Local{0};
    /// Declared invisible work since the thread's last visible op; the
    /// basis of the eager-designation stall estimate. Touched only by
    /// the thread itself.
    VTime WorkSinceOp = 0;
    /// Set by the commit that designates the thread eagerly; consumed by
    /// its next visible op, which the grant orders after that commit.
    bool EagerStalled = false;
  };

  void chain(Slot &S, VTime Cost);

  CostModelConfig Config;
  /// Per-thread slots; entries never move, so off-chain work() and the
  /// watchdog index them while a critical section appends.
  ChunkedTable<Slot> Slots;
  /// rr-sim's chain lock: a leaf lock, taken only under SequentializeAll.
  std::mutex ChainMu;
  // Critical-section state. Relaxed atomics rather than plain fields
  // only because a retiring thread's degenerate critical section may
  // overlap the one in-flight section while a session is torn down.
  std::atomic<VTime> GlobalChain{0};
  std::atomic<uint64_t> EagerStalls{0};
  std::atomic<VTime> EagerChargedNs{0};
};

} // namespace tsr

#endif // TSR_ENV_COSTMODEL_H
