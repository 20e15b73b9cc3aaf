//===-- support/Host.h - Facts about the host process -----------*- C++ -*-===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host facts the runtime sizes itself by. The CPU count is the process's
/// affinity mask (sched_getaffinity), not std::thread::hardware_concurrency:
/// under `taskset -c 0` or a cpuset-restricted container the machine may
/// have many cores while this process may run on one, and spinning or
/// worker sizing keyed on the machine count then oversubscribes it.
///
//===----------------------------------------------------------------------===//

#ifndef TSR_SUPPORT_HOST_H
#define TSR_SUPPORT_HOST_H

#include <sched.h>

#include <thread>

namespace tsr {

/// CPUs this process may run on, read once per process (at the first
/// call) from the affinity mask; falls back to hardware_concurrency when
/// the mask is unavailable. Never zero. A cgroup CPU quota (cpu.max) is
/// not reflected.
inline unsigned usableCpus() {
  static const unsigned Count = [] {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
      return static_cast<unsigned>(CPU_COUNT(&Set));
    const unsigned Hw = std::thread::hardware_concurrency();
    return Hw ? Hw : 1u;
  }();
  return Count;
}

} // namespace tsr

#endif // TSR_SUPPORT_HOST_H
